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
 * The pfn→(process, va) reverse map Linux keeps in struct page/rmap is
 * built per tick from the scanned processes' leaf entries, but only
 * for frames in this tick's candidate blocks: a frame enters a
 * candidate block mid-tick only as a compaction destination, and that
 * path updates the map itself.
 */

#include <algorithm>
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
    // (the cheapest reclaims), ties by block index for determinism.
    // Every relocation allocates and frees on its source frame's own
    // socket, so taking all sockets' lists up front sees the same
    // counts as taking each one when its socket's turn comes.
    struct SocketCands
    {
        Pfn first = 0; //!< the socket's lowest pfn
        std::vector<std::pair<std::uint32_t, std::uint64_t>> list;
        std::vector<bool> member; //!< by block; empty when list is
    };
    std::vector<SocketCands> cands(
        static_cast<std::size_t>(machine.numSockets()));
    bool any = false;
    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);
        SocketCands &c = cands[static_cast<std::size_t>(s)];
        c.first = alloc.firstPfn();
        for (std::uint64_t b = 0; b < alloc.numBlocks(); ++b) {
            std::uint32_t used = alloc.blockUsedCount(b);
            if (used > 0 && used <= cfg.compactMaxUsed)
                c.list.emplace_back(used, b);
        }
        if (c.list.empty())
            continue;
        std::sort(c.list.begin(), c.list.end());
        c.member.assign(alloc.numBlocks(), false);
        for (const auto &entry : c.list)
            c.member[entry.second] = true;
        any = true;
    }
    if (!any)
        return;

    // Reverse map (rmap): mapped 4 KB data pfn -> (process, va), for
    // frames in candidate blocks only.
    std::unordered_map<Pfn, std::pair<Process *, VirtAddr>> rmap;
    for (Process *p : procs) {
        ops.forEachLeaf(
            p->roots(),
            [&](VirtAddr va, pt::PteLoc, pt::Pte pte, PageSizeKind size) {
                if (size != PageSizeKind::Base4K)
                    return;
                Pfn pfn = pte.pfn();
                const SocketCands &c =
                    cands[static_cast<std::size_t>(physmem.socketOf(pfn))];
                if (!c.member.empty() &&
                    c.member[(pfn - c.first) / FramesPerLargePage])
                    rmap[pfn] = {p, va};
            });
    }

    for (SocketId s = 0; s < machine.numSockets(); ++s) {
        const mem::FrameAllocator &alloc = physmem.allocator(s);
        unsigned budget = cfg.compactBlocksPerTick;
        for (const auto &[used_snapshot, b] :
             cands[static_cast<std::size_t>(s)].list) {
            (void)used_snapshot;
            if (!budget)
                break;
            // Earlier relocations may have drained or refilled this
            // block; re-check before working on it.
            std::uint32_t used = alloc.blockUsedCount(b);
            if (used == 0 || used > cfg.compactMaxUsed)
                continue;

            std::vector<Pfn> frames;
            alloc.forEachAllocatedInBlock(
                b, [&](Pfn p) { frames.push_back(p); });

            // Movability pre-check: one immovable frame pins the
            // block. Unmovable candidates cost no budget — a socket
            // full of PT-pinned near-empty blocks must not starve the
            // drainable ones behind them in the list.
            bool movable = true;
            for (Pfn p : frames) {
                if (physmem.isFragPinned(p))
                    continue;
                const mem::PageMeta &m = physmem.meta(p);
                if (m.type == mem::FrameType::Data &&
                    !m.hasFlag(mem::FrameFlagLargeHead) &&
                    !m.hasFlag(mem::FrameFlagLargeTail) &&
                    rmap.count(p))
                    continue;
                movable = false;
                break;
            }
            if (!movable) {
                ++stats_.compactionFailures;
                mCompactionFailures->inc();
                continue;
            }
            --budget;

            bool drained = true;
            std::vector<std::pair<Process *, VirtAddr>> moved;
            for (Pfn p : frames) {
                if (physmem.isFragPinned(p)) {
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
                auto [proc, va] = rmap.at(p);
                auto fresh = physmem.compactData(p);
                if (!fresh) {
                    ++stats_.compactionFailures;
                    mCompactionFailures->inc();
                    drained = false;
                    break;
                }
                pt::WalkResult cur = ops.walk(proc->roots(), va);
                MITOSIM_ASSERT(cur.mapped && cur.leaf.pfn() == p,
                               "kcompactd: rmap out of date");
                k.backend().setPte(proc->roots(), cur.loc,
                                   cur.leaf.withPfn(*fresh), 1, cost);
                if (cost)
                    cost->charge(pvops::PageCopyCost);
                rmap.erase(p);
                rmap[*fresh] = {proc, va};
                moved.emplace_back(proc, va);
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
