#include "frame_allocator.h"

#include <algorithm>

#include "src/base/logging.h"

namespace mitosim::mem
{

FrameAllocator::FrameAllocator(Pfn first_pfn, std::uint64_t num_frames)
    : basePfn(first_pfn), numFrames(num_frames), freeCount(num_frames),
      fullyFreeBlocks(num_frames / framesPerBlock),
      blocks(num_frames / framesPerBlock),
      usedCounts(num_frames / framesPerBlock, 0)
{
    if (num_frames == 0 || num_frames % framesPerBlock != 0)
        fatal("FrameAllocator size must be a positive multiple of 512");
    fullyFreeStack.reserve(blocks.size());
    // Push in reverse so allocation proceeds from low addresses upward.
    for (std::size_t i = blocks.size(); i-- > 0;)
        fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
}

bool
FrameAllocator::testSlot(const Block &b, unsigned slot) const
{
    return (b.used[slot >> 6] >> (slot & 63)) & 1;
}

void
FrameAllocator::setSlot(std::uint64_t block, unsigned slot)
{
    blocks[block].used[slot >> 6] |= 1ull << (slot & 63);
    if (usedCounts[block]++ == 0)
        --fullyFreeBlocks;
    touchBlock(block);
}

void
FrameAllocator::clearSlot(std::uint64_t block, unsigned slot)
{
    blocks[block].used[slot >> 6] &= ~(1ull << (slot & 63));
    if (--usedCounts[block] == 0)
        ++fullyFreeBlocks;
    touchBlock(block);
}

int
FrameAllocator::findFreeSlot(const Block &b) const
{
    for (unsigned w = 0; w < 8; ++w) {
        std::uint64_t inv = ~b.used[w];
        if (inv)
            return static_cast<int>(w * 64 +
                                    static_cast<unsigned>(
                                        __builtin_ctzll(inv)));
    }
    return -1;
}

std::optional<Pfn>
FrameAllocator::allocFrame()
{
    if (freeCount == 0)
        return std::nullopt;

    // Prefer a partially-used block to keep fully-free blocks intact for
    // large-page allocations (mirrors buddy-allocator behaviour).
    while (!partialStack.empty()) {
        std::uint32_t bi = partialStack.back();
        if (usedCounts[bi] == 0 || usedCounts[bi] >= framesPerBlock) {
            partialStack.pop_back(); // stale entry
            continue;
        }
        int slot = findFreeSlot(blocks[bi]);
        MITOSIM_ASSERT(slot >= 0);
        setSlot(bi, static_cast<unsigned>(slot));
        if (usedCounts[bi] >= framesPerBlock)
            partialStack.pop_back();
        --freeCount;
        return basePfn + bi * 512ull + static_cast<unsigned>(slot);
    }

    // Split a fully-free block.
    while (!fullyFreeStack.empty()) {
        std::uint32_t bi = fullyFreeStack.back();
        if (usedCounts[bi] != 0) {
            fullyFreeStack.pop_back(); // stale entry
            continue;
        }
        fullyFreeStack.pop_back();
        setSlot(bi, 0);
        partialStack.push_back(bi);
        --freeCount;
        return basePfn + bi * 512ull;
    }

    // freeCount > 0 but no block found: stacks were stale; rebuild.
    for (std::size_t i = blocks.size(); i-- > 0;) {
        if (usedCounts[i] == 0)
            fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
        else if (usedCounts[i] < framesPerBlock)
            partialStack.push_back(static_cast<std::uint32_t>(i));
    }
    if (partialStack.empty() && fullyFreeStack.empty())
        return std::nullopt;
    return allocFrame();
}

std::optional<Pfn>
FrameAllocator::allocLargeBlock()
{
    while (!fullyFreeStack.empty()) {
        std::uint32_t bi = fullyFreeStack.back();
        if (usedCounts[bi] != 0) {
            fullyFreeStack.pop_back(); // stale
            continue;
        }
        fullyFreeStack.pop_back();
        for (auto &w : blocks[bi].used)
            w = ~0ull;
        usedCounts[bi] = framesPerBlock;
        freeCount -= framesPerBlock;
        --fullyFreeBlocks;
        return basePfn + bi * 512ull;
    }
    // Rebuild in case frees made blocks fully free without stack
    // entries; under full fragmentation there is none to find.
    if (fullyFreeBlocks == 0)
        return std::nullopt;
    bool found = false;
    for (std::size_t i = blocks.size(); i-- > 0;) {
        if (usedCounts[i] == 0) {
            fullyFreeStack.push_back(static_cast<std::uint32_t>(i));
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    return allocLargeBlock();
}

void
FrameAllocator::freeFrame(Pfn pfn)
{
    MITOSIM_ASSERT(owns(pfn), "freeFrame: pfn not owned by this socket");
    std::uint64_t bi = blockOf(pfn);
    unsigned slot = slotOf(pfn);
    if (!testSlot(blocks[bi], slot))
        panic("double free of pfn %llu", (unsigned long long)pfn);
    bool was_full = usedCounts[bi] >= framesPerBlock;
    clearSlot(bi, slot);
    ++freeCount;
    if (usedCounts[bi] == 0)
        fullyFreeStack.push_back(static_cast<std::uint32_t>(bi));
    else if (was_full)
        partialStack.push_back(static_cast<std::uint32_t>(bi));
}

void
FrameAllocator::freeLargeBlock(Pfn head)
{
    MITOSIM_ASSERT(owns(head) && slotOf(head) == 0,
                   "freeLargeBlock: head not 2MB aligned");
    std::uint64_t bi = blockOf(head);
    if (usedCounts[bi] != framesPerBlock)
        panic("freeLargeBlock: block not fully allocated");
    for (auto &w : blocks[bi].used)
        w = 0;
    usedCounts[bi] = 0;
    freeCount += framesPerBlock;
    ++fullyFreeBlocks;
    fullyFreeStack.push_back(static_cast<std::uint32_t>(bi));
}

double
FrameAllocator::largeBlockFreeRatio() const
{
    return blocks.empty()
               ? 0.0
               : static_cast<double>(freeLargeBlocks()) /
                     static_cast<double>(blocks.size());
}

std::uint32_t
FrameAllocator::blockUsedCount(std::uint64_t index) const
{
    MITOSIM_ASSERT(index < blocks.size());
    return usedCounts[index];
}

std::uint64_t
FrameAllocator::destKey(std::uint64_t block) const
{
    std::uint32_t used = usedCounts[block];
    if (used == 0 || used >= framesPerBlock)
        return 0;
    return (static_cast<std::uint64_t>(used) << 32) |
           static_cast<std::uint32_t>(~block);
}

void
FrameAllocator::buildDestTree()
{
    std::uint64_t leaves = 1;
    while (leaves < blocks.size())
        leaves <<= 1;
    destTree.assign(2 * leaves, 0);
    for (std::uint64_t i = 0; i < blocks.size(); ++i)
        destTree[leaves + i] = destKey(i);
    for (std::uint64_t n = leaves; n-- > 1;)
        destTree[n] = std::max(destTree[2 * n], destTree[2 * n + 1]);
}

void
FrameAllocator::updateDestTree(std::uint64_t block)
{
    std::uint64_t n = destTree.size() / 2 + block;
    std::uint64_t key = destKey(block);
    if (destTree[n] == key)
        return;
    destTree[n] = key;
    // Replay the matches up to the root; once a node's winner is
    // unchanged, every ancestor's is too.
    for (n >>= 1; n >= 1; n >>= 1) {
        std::uint64_t win = std::max(destTree[2 * n], destTree[2 * n + 1]);
        if (destTree[n] == win)
            break;
        destTree[n] = win;
    }
}

std::optional<Pfn>
FrameAllocator::allocFrameForCompaction(Pfn avoid)
{
    MITOSIM_ASSERT(owns(avoid));
    if (destTree.empty())
        buildDestTree();
    // The fullest partial block packs relocated frames densest, which
    // is what turns scattered occupancy back into free 2 MB blocks.
    // The best block other than avoid's is the best of the subtrees
    // hanging off avoid's leaf-to-root path.
    std::uint64_t best = 0;
    for (std::uint64_t n = destTree.size() / 2 + blockOf(avoid); n > 1;
         n >>= 1)
        best = std::max(best, destTree[n ^ 1]);
    if (best == 0)
        return std::nullopt;
    std::uint64_t bi = static_cast<std::uint32_t>(~best);
    int slot = findFreeSlot(blocks[bi]);
    MITOSIM_ASSERT(slot >= 0);
    // A now-full block may leave a stale partialStack entry behind;
    // pops verify against the block's actual state, as everywhere.
    setSlot(bi, static_cast<unsigned>(slot));
    --freeCount;
    return basePfn + bi * 512ull + static_cast<unsigned>(slot);
}

bool
FrameAllocator::isAllocated(Pfn pfn) const
{
    MITOSIM_ASSERT(owns(pfn));
    return testSlot(blocks[blockOf(pfn)], slotOf(pfn));
}

std::vector<Pfn>
FrameAllocator::fragment(double fraction, Rng &rng)
{
    std::vector<Pfn> pinned;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        if (usedCounts[bi] != 0)
            continue;
        if (!rng.chance(fraction))
            continue;
        unsigned slot = static_cast<unsigned>(rng.below(framesPerBlock));
        setSlot(bi, slot);
        --freeCount;
        partialStack.push_back(static_cast<std::uint32_t>(bi));
        pinned.push_back(basePfn + bi * 512ull + slot);
    }
    return pinned;
}

} // namespace mitosim::mem
