/**
 * @file
 * kcompactd: the background compaction daemon.
 *
 * When khugepaged cannot collapse for lack of a free 2 MB block,
 * compaction reconstitutes allocLargeBlock() capacity by draining the
 * few allocated frames out of nearly-free blocks:
 *
 *  - mapped 4 KB data frames of the scanned processes move through the
 *    data-migration path — a targeted same-socket reallocation
 *    (FrameAllocator::allocFrameForCompaction, which never splits a
 *    free block), a PageCopyCost copy, a replica-coherent PTE rewrite
 *    through the PV-Ops backend, and a range shootdown per process so
 *    stale translations — including descheduled tenants' ASID-tagged
 *    entries — die before the freed frames can be reused;
 *  - fragmentation-injector fillers move as modelled movable kernel
 *    memory (no PTE involved);
 *  - anything else (page-table frames, 2 MB data, unscanned owners)
 *    makes the block unmovable and it is skipped.
 *
 * The pfn→(process, va) reverse map is the frame's own metadata, as
 * Linux reads it from struct page: a small data frame records its
 * owner and virtual page when it is mapped (PageMeta::owner / va()),
 * and migration and compaction carry both to the new frame. kcompactd
 * trusts the record only if the owner is a scanned process and a raw
 * walk finds a present 4 KB leaf there pointing at the frame. Beyond
 * the per-socket block scan, a tick costs O(frames in the candidate
 * blocks it visits), not O(mapped memory).
 */

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/os/kernel.h"
#include "src/os/thp/thp.h"
#include "src/pvops/costs.h"

namespace mitosim::os::thp
{

void
ThpManager::compactTick(const std::vector<Process *> &procs,
                        pvops::KernelCost *cost)
{
    auto &machine = k.machine();
    auto &physmem = machine.physmem();
    auto &ops = k.ptOps();

    // Source candidates per socket: nearly-free blocks, emptiest first
    // (the cheapest reclaims), ties by block index for determinism —
    // a counting sort over used counts, blocks ascending within one.
    // Every relocation allocates and frees on its source frame's own
    // socket, so taking all sockets' lists up front sees the same
    // counts as taking each one when its socket's turn comes.
    const std::uint32_t max_used = std::min<std::uint32_t>(
        cfg.compactMaxUsed, static_cast<std::uint32_t>(FramesPerLargePage));
    std::vector<std::vector<std::uint64_t>> cands(
        static_cast<std::size_t>(machine.numSockets()));
    std::vector<std::size_t> bucket(max_used + 2);
    bool any = false;
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);
        auto candidate = [&](std::uint64_t b) {
            std::uint32_t used = alloc.blockUsedCount(b);
            return used > 0 && used <= max_used ? used : 0u;
        };
        // bucket[u + 1] counts blocks with u used frames; the prefix
        // sum turns bucket[u] into bucket u's first list position.
        std::fill(bucket.begin(), bucket.end(), 0);
        for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b)
            if (std::uint32_t used = candidate(b))
                ++bucket[used + 1];
        for (std::size_t u = 1; u < bucket.size(); ++u)
            bucket[u] += bucket[u - 1];
        if (bucket.back() == 0)
            continue;
        std::vector<std::uint64_t> &list =
            cands[static_cast<std::size_t>(s)];
        list.resize(bucket.back());
        for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b)
            if (std::uint32_t used = candidate(b))
                list[bucket[used]++] = b;
        any = true;
    }
    if (!any)
        return;

    std::unordered_map<ProcId, Process *> scanned;
    for (Process *p : procs)
        scanned.emplace(p->id(), p);

    // Where a frame of a candidate block is mapped: the leaf at the
    // virtual page its metadata records, in its owner's primary tree.
    // Fillers map nowhere (proc stays null).
    struct Mapping
    {
        Process *proc = nullptr;
        VirtAddr va = 0;
        pt::WalkResult leaf;
    };
    // Movable data: a small data frame of a scanned owner, which a
    // present 4 KB leaf at the recorded page points back at.
    auto mappingOf = [&](Pfn p) -> std::optional<Mapping> {
        const mem::PageMeta &m = physmem.meta(p);
        if (m.type != mem::FrameType::Data ||
            m.hasFlag(mem::FrameFlagLargeHead) ||
            m.hasFlag(mem::FrameFlagLargeTail))
            return std::nullopt;
        auto owner = scanned.find(m.owner);
        if (owner == scanned.end())
            return std::nullopt;
        pt::WalkResult cur = ops.walk(owner->second->roots(), m.va());
        if (!cur.mapped || cur.size != PageSizeKind::Base4K ||
            cur.leaf.pfn() != p)
            return std::nullopt;
        return Mapping{owner->second, m.va(), cur};
    };

    std::vector<Pfn> frames;
    std::vector<Mapping> maps;
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);
        unsigned budget = cfg.compactBlocksPerTick;
        for (std::uint64_t b : cands[static_cast<std::size_t>(s)]) {
            if (!budget)
                break;
            // Earlier relocations may have drained or refilled this
            // block; re-check before working on it.
            std::uint32_t used = alloc.blockUsedCount(b);
            if (used == 0 || used > cfg.compactMaxUsed)
                continue;

            frames.clear();
            alloc.forEachAllocatedInBlock(
                b, [&](Pfn p) { frames.push_back(p); });

            // Movability pre-check: one immovable frame pins the
            // block. Unmovable candidates cost no budget — a socket
            // full of PT-pinned near-empty blocks must not starve the
            // drainable ones behind them in the list.
            maps.clear();
            bool movable = true;
            for (Pfn p : frames) {
                if (physmem.isFragPinned(p)) {
                    maps.emplace_back();
                } else if (auto map = mappingOf(p)) {
                    maps.push_back(*map);
                } else {
                    movable = false;
                    break;
                }
            }
            if (!movable) {
                ++stats_.compactionFailures;
                mCompactionFailures->inc();
                continue;
            }
            --budget;

            bool drained = true;
            std::vector<std::pair<Process *, VirtAddr>> moved;
            for (std::size_t i = 0; i < frames.size(); ++i) {
                Pfn p = frames[i];
                const Mapping &map = maps[i];
                if (!map.proc) {
                    if (!physmem.compactReservedPin(p)) {
                        ++stats_.compactionFailures;
                        mCompactionFailures->inc();
                        drained = false;
                        break;
                    }
                    if (cost)
                        cost->charge(pvops::PageCopyCost);
                    ++stats_.compactionPagesMoved;
                    mPagesMoved->inc();
                    continue;
                }
                auto fresh = physmem.compactData(p);
                if (!fresh) {
                    ++stats_.compactionFailures;
                    mCompactionFailures->inc();
                    drained = false;
                    break;
                }
                // The block's own relocations rewrite other leaves
                // only, so the pre-check's leaf is still current.
                k.backend().setPte(map.proc->roots(), map.leaf.loc,
                                   map.leaf.leaf.withPfn(*fresh), 1, cost);
                if (cost)
                    cost->charge(pvops::PageCopyCost);
                moved.emplace_back(map.proc, map.va);
                ++stats_.compactionPagesMoved;
                mPagesMoved->inc();
            }

            // Shoot down the moved translations per owning process —
            // stale (possibly descheduled, ASID-tagged) entries must
            // die before the vacated frames are reused. Grouped in
            // procs order so the simulated TLB traffic is
            // deterministic.
            for (Process *p : procs) {
                std::vector<VirtAddr> vas;
                for (const auto &[owner, va] : moved) {
                    if (owner == p)
                        vas.push_back(va);
                }
                if (!vas.empty())
                    k.shootdownRange(*p, vas, vas.size(), cost);
            }

            if (drained) {
                ++stats_.compactionBlocksReclaimed;
                mBlocksReclaimed->inc();
                machine.tracer().instant(
                    obs::TraceCat::Thp, "kcompactd_reclaim", 0, 0,
                    "socket", static_cast<std::uint64_t>(s), "block",
                    b);
            }
        }
    }
}

} // namespace mitosim::os::thp
