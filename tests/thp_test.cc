/**
 * @file
 * Unit tests for the THP lifecycle subsystem (src/os/thp): khugepaged
 * collapse (full and sparse runs, eligibility, target-node choice),
 * the huge-page split path (explicit, partial-munmap/mprotect gated,
 * madvise boundaries), kcompactd block reclamation, madvise VMA
 * semantics, replica coherence under the Mitosis and lazy backends,
 * and the ExecContext-clock daemon ticks.
 */

#include <gtest/gtest.h>

#include "src/analysis/pt_dump.h"
#include "src/base/logging.h"
#include "src/core/lazy_backend.h"
#include "src/core/mitosis.h"
#include "src/os/exec_context.h"
#include "src/os/kernel.h"
#include "src/pvops/native_backend.h"
#include "src/sim/machine.h"

namespace mitosim::os
{
namespace
{

constexpr VirtAddr Base = 0x10000000000ull;

/** One kernel under test with a selectable backend and THP config. */
struct Fixture
{
    enum class Backend
    {
        Native,
        Mitosis,
        Lazy,
    };

    explicit Fixture(Backend kind = Backend::Native,
                     thp::ThpConfig thp_cfg = thp::ThpConfig{})
        : machine(sim::MachineConfig::tiny()),
          native(machine.physmem()),
          mitosis(machine.physmem()),
          lazy(machine.physmem()),
          kernel(machine, pick(kind), makeConfig(thp_cfg)),
          proc(kernel.createProcess("thp", 0))
    {
        if (kind == Backend::Mitosis) {
            mitosis.setReplicationMask(proc.roots(), proc.id(),
                                       SocketMask::all(2));
        } else if (kind == Backend::Lazy) {
            lazy.setReplicationMask(proc.roots(), proc.id(),
                                    SocketMask::all(2));
        }
    }

    pvops::PvOps &
    pick(Backend kind)
    {
        switch (kind) {
          case Backend::Native:
            return native;
          case Backend::Mitosis:
            return mitosis;
          case Backend::Lazy:
            return lazy;
        }
        return native;
    }

    static KernelConfig
    makeConfig(const thp::ThpConfig &thp_cfg)
    {
        KernelConfig cfg;
        cfg.thp = thp_cfg;
        return cfg;
    }

    /**
     * A THP-eligible VMA of @p pages 4 KB pages at Base, populated as
     * 4 KB mappings by fragmenting physical memory around the
     * populate (then undoing the fragmentation so blocks are free for
     * collapse).
     */
    void
    populate4K(std::uint64_t pages, bool defrag = true)
    {
        Rng rng(7);
        for (SocketId s = 0; s < machine.numSockets(); ++s)
            machine.physmem().fragment(s, 1.0, rng);
        kernel.mmapFixed(proc, Base, pages * PageSize,
                         MmapOptions{.populate = true, .thp = true,
                                     .prot = ProtRead | ProtWrite});
        if (defrag) {
            for (SocketId s = 0; s < machine.numSockets(); ++s)
                machine.physmem().defragment(s);
        }
    }

    sim::Machine machine;
    pvops::NativeBackend native;
    core::MitosisBackend mitosis;
    core::LazyMitosisBackend lazy;
    Kernel kernel;
    Process &proc;
};

TEST(ThpCollapse, PromotesFullyPopulatedRange)
{
    Fixture f;
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();
    std::uint64_t data_before = pm.stats(0).dataPages;
    std::uint64_t pt_before = pm.stats(0).ptPages + pm.stats(1).ptPages;
    std::uint64_t resident = f.proc.residentPages;

    pvops::KernelCost cost;
    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, &cost));
    EXPECT_GT(cost.cycles, 0u);

    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_EQ(res.leaf.pfn() % FramesPerLargePage, 0u);
    EXPECT_TRUE(res.leaf.writable());

    // 512 small frames became one large page; the leaf table is gone.
    EXPECT_EQ(pm.stats(0).dataPages, data_before - FramesPerLargePage);
    EXPECT_EQ(pm.stats(0).dataLargePages, 1u);
    EXPECT_EQ(pm.stats(0).ptPages + pm.stats(1).ptPages, pt_before - 1);
    EXPECT_EQ(f.proc.residentPages, resident);
    EXPECT_EQ(f.kernel.thp().stats().collapses, 1u);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCollapse, FailsWithoutAFreeBlockAndCounts)
{
    Fixture f;
    f.populate4K(FramesPerLargePage, /*defrag=*/false);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.kernel.thp().stats().collapses, 0u);
    EXPECT_EQ(f.kernel.thp().stats().collapseFailedNoBlock, 1u);
}

TEST(ThpCollapse, SparseRunZeroFillsHoles)
{
    Fixture f;
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.thp = true});
    // Only 3 of the 512 pages resident.
    f.kernel.populate(f.proc, Base, PageSize, 0);
    f.kernel.populate(f.proc, Base + 17 * PageSize, PageSize, 0);
    f.kernel.populate(f.proc, Base + 511 * PageSize, PageSize, 0);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);
    EXPECT_EQ(f.proc.residentPages, 3u);

    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.proc.residentPages, FramesPerLargePage);
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
}

TEST(ThpCollapse, MaxPtesNoneZeroRequiresFullPopulation)
{
    thp::ThpConfig cfg;
    cfg.maxPtesNone = 0;
    Fixture f(Fixture::Backend::Native, cfg);
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.thp = true});
    f.kernel.populate(f.proc, Base, 511 * PageSize, 0); // one hole
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    f.kernel.populate(f.proc, Base + 511 * PageSize, PageSize, 0);
    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
}

TEST(ThpCollapse, TargetsMajoritySocket)
{
    Fixture f;
    Rng rng(7);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().fragment(s, 1.0, rng);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.thp = true});
    // Majority of the resident pages on socket 1, a minority on 0.
    CoreId core0 = f.machine.topology().firstCoreOf(0);
    CoreId core1 = f.machine.topology().firstCoreOf(1);
    f.kernel.populate(f.proc, Base, 4 * PageSize, core0);
    f.kernel.populate(f.proc, Base + 4 * PageSize, 12 * PageSize, core1);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        f.machine.physmem().defragment(s);

    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_TRUE(res.mapped);
    EXPECT_EQ(f.machine.physmem().socketOf(res.leaf.pfn()), 1);
}

TEST(ThpCollapse, RefusesUnmappedAndAlreadyHugeRanges)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    // Populated without fragmentation: already one huge page.
    pt::WalkResult res = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    // And a hole below any VMA is refused too.
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base + (64ull << 20),
                                           nullptr));
}

TEST(ThpSplit, DemotesToSameFrames)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    pt::WalkResult huge = f.kernel.ptOps().walk(f.proc.roots(), Base);
    ASSERT_EQ(huge.size, PageSizeKind::Large2M);
    Pfn head = huge.leaf.pfn();
    auto &pm = f.machine.physmem();
    std::uint64_t resident = f.proc.residentPages;

    EXPECT_TRUE(f.kernel.thp().splitAt(f.proc, Base + 5 * PageSize,
                                       nullptr));
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_EQ(pm.stats(0).dataLargePages, 0u);
    EXPECT_EQ(pm.stats(0).dataPages, FramesPerLargePage);
    EXPECT_EQ(f.proc.residentPages, resident);

    for (unsigned i = 0; i < FramesPerLargePage; i += 101) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        ASSERT_TRUE(res.mapped) << i;
        EXPECT_EQ(res.size, PageSizeKind::Base4K) << i;
        EXPECT_EQ(res.leaf.pfn(), head + i) << i;
        EXPECT_TRUE(res.leaf.writable()) << i;
    }

    // The frames are individually freeable now.
    pvops::KernelCost cost;
    f.kernel.munmap(f.proc, Base, PageSize, &cost);
    EXPECT_FALSE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + PageSize)
                    .mapped);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpSplit, PartialMunmapKeepsRestWhenGateOn)
{
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.kernel.mmapFixed(f.proc, Base, 2 * LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    std::uint64_t resident = f.proc.residentPages;

    // Unmap one 4 KB page in the middle of the first huge page.
    f.kernel.munmap(f.proc, Base + 7 * PageSize, PageSize);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_FALSE(
        f.kernel.ptOps().walk(f.proc.roots(), Base + 7 * PageSize)
            .mapped);
    EXPECT_TRUE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + 8 * PageSize)
                    .mapped);
    // The second huge page is untouched.
    pt::WalkResult second =
        f.kernel.ptOps().walk(f.proc.roots(), Base + LargePageSize);
    ASSERT_TRUE(second.mapped);
    EXPECT_EQ(second.size, PageSizeKind::Large2M);
    // residentPages is cumulative (pages ever faulted in): unchanged.
    EXPECT_EQ(f.proc.residentPages, resident);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpSplit, PartialMunmapZapsWholeLeafWhenGateOff)
{
    Fixture f; // splitPartial defaults off: seed semantics
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.munmap(f.proc, Base + 7 * PageSize, PageSize);
    EXPECT_EQ(f.kernel.thp().stats().splits, 0u);
    // The whole 2 MB mapping went away (the seed's whole-leaf zap).
    EXPECT_FALSE(f.kernel.ptOps().walk(f.proc.roots(), Base).mapped);
    EXPECT_FALSE(f.kernel.ptOps()
                     .walk(f.proc.roots(), Base + 8 * PageSize)
                     .mapped);
}

TEST(ThpSplit, PartialMprotectDowngradesOnlyTheRange)
{
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.mprotect(f.proc, Base, 16 * PageSize, ProtRead);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_FALSE(
        f.kernel.ptOps().walk(f.proc.roots(), Base).leaf.writable());
    EXPECT_TRUE(f.kernel.ptOps()
                    .walk(f.proc.roots(), Base + 16 * PageSize)
                    .leaf.writable());
    const Vma *head = f.proc.findVma(Base);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->prot, std::uint64_t{ProtRead});
    EXPECT_EQ(head->end, Base + 16 * PageSize);
}

TEST(ThpMadvise, TogglesEligibilityWithVmaSplitAndMerge)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, 8 * LargePageSize,
                       MmapOptions{.thp = false});
    ASSERT_EQ(f.proc.vmas().size(), 1u);

    f.kernel.madvise(f.proc, Base + 2 * LargePageSize,
                     2 * LargePageSize, Madvise::Huge);
    EXPECT_EQ(f.proc.vmas().size(), 3u);
    EXPECT_FALSE(f.proc.findVma(Base)->thpEnabled);
    EXPECT_TRUE(
        f.proc.findVma(Base + 2 * LargePageSize)->thpEnabled);
    EXPECT_FALSE(
        f.proc.findVma(Base + 4 * LargePageSize)->thpEnabled);

    // Huge faults now succeed inside the advised window only.
    f.kernel.populate(f.proc, Base + 2 * LargePageSize, LargePageSize,
                      0);
    EXPECT_EQ(f.kernel.ptOps()
                  .walk(f.proc.roots(), Base + 2 * LargePageSize)
                  .size,
              PageSizeKind::Large2M);
    f.kernel.populate(f.proc, Base, PageSize, 0);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);

    // NoHuge merges the pieces back into one VMA... except the 2 MB
    // page already mapped stays mapped (Linux semantics: the advice
    // gates future faults and collapse, not existing mappings).
    f.kernel.madvise(f.proc, Base + 2 * LargePageSize,
                     2 * LargePageSize, Madvise::NoHuge);
    EXPECT_EQ(f.proc.vmas().size(), 1u);
    EXPECT_EQ(f.kernel.ptOps()
                  .walk(f.proc.roots(), Base + 2 * LargePageSize)
                  .size,
              PageSizeKind::Large2M);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpMadvise, EnablesCollapseAfterTheFact)
{
    // The satellite case: memory mapped and populated 4 KB *without*
    // THP, then madvise(Huge) + khugepaged promote it.
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = false});
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
    EXPECT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));

    f.kernel.madvise(f.proc, Base, LargePageSize, Madvise::Huge);
    EXPECT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Large2M);
}

TEST(ThpMadvise, BoundaryInsideHugePageDemotesIt)
{
    Fixture f;
    f.kernel.mmapFixed(f.proc, Base, LargePageSize,
                       MmapOptions{.populate = true, .thp = true});
    f.kernel.madvise(f.proc, Base, LargePageSize / 2, Madvise::NoHuge);
    EXPECT_EQ(f.kernel.thp().stats().splits, 1u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
    EXPECT_EQ(f.proc.vmas().size(), 2u);
}

TEST(ThpCompaction, ReclaimsBlocksAndPreservesMappings)
{
    thp::ThpConfig cfg;
    cfg.kcompactd = true;
    cfg.compactBlocksPerTick = 64;
    Fixture f(Fixture::Backend::Native, cfg);
    auto &pm = f.machine.physmem();

    Rng rng(11);
    for (SocketId s = 0; s < f.machine.numSockets(); ++s)
        pm.fragment(s, 1.0, rng);
    ASSERT_EQ(pm.freeLargeBlocks(0), 0u);
    ASSERT_EQ(pm.largeBlockFreeRatio(0), 0.0);

    // A few mapped pages land in otherwise pin-only blocks.
    f.kernel.mmapFixed(f.proc, Base, 8 * PageSize,
                       MmapOptions{.populate = true});
    std::vector<Pfn> before;
    for (unsigned i = 0; i < 8; ++i)
        before.push_back(f.kernel.ptOps()
                             .walk(f.proc.roots(), Base + i * PageSize)
                             .leaf.pfn());

    f.kernel.thpTick();
    const thp::ThpStats &ts = f.kernel.thp().stats();
    EXPECT_GT(ts.compactionBlocksReclaimed, 0u);
    EXPECT_GT(ts.compactionPagesMoved, 0u);
    EXPECT_GT(pm.freeLargeBlocks(0) + pm.freeLargeBlocks(1), 0u);
    EXPECT_GT(pm.largeBlockFreeRatio(0), 0.0);

    // Every mapping survived (possibly on a different frame), still
    // owned and allocated.
    for (unsigned i = 0; i < 8; ++i) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        ASSERT_TRUE(res.mapped) << i;
        const mem::PageMeta &m = pm.meta(res.leaf.pfn());
        EXPECT_EQ(m.type, mem::FrameType::Data) << i;
        EXPECT_EQ(m.owner, f.proc.id()) << i;
    }
    (void)before;
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCompaction, RelocatesMappedDataThroughTheReverseMap)
{
    thp::ThpConfig cfg;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg);
    auto &pm = f.machine.physmem();

    // Three leaf tables' worth of pages: the last few land alone in a
    // nearly-free block (the leaf tables were allocated in earlier
    // blocks). Unmapping a few pages of the first block leaves a fuller
    // partial block to take them.
    const std::uint64_t pages = 3 * FramesPerLargePage;
    f.kernel.mmapFixed(f.proc, Base, pages * PageSize,
                       MmapOptions{.populate = true});
    f.kernel.munmap(f.proc, Base + 16 * PageSize, 16 * PageSize);
    std::vector<Pfn> before(pages, InvalidPfn);
    for (std::uint64_t i = 0; i < pages; ++i) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        if (res.mapped)
            before[i] = res.leaf.pfn();
    }

    f.kernel.thpTick();
    const thp::ThpStats &ts = f.kernel.thp().stats();
    EXPECT_GT(ts.compactionBlocksReclaimed, 0u);
    unsigned moved = 0;
    for (std::uint64_t i = 0; i < pages; ++i) {
        pt::WalkResult res =
            f.kernel.ptOps().walk(f.proc.roots(), Base + i * PageSize);
        ASSERT_EQ(res.mapped, before[i] != InvalidPfn) << i;
        if (!res.mapped)
            continue;
        const mem::PageMeta &m = pm.meta(res.leaf.pfn());
        EXPECT_EQ(m.type, mem::FrameType::Data) << i;
        EXPECT_EQ(m.owner, f.proc.id()) << i;
        if (res.leaf.pfn() != before[i])
            ++moved;
    }
    // Only mapped data lived in the drained block: every frame moved
    // was found through the reverse map and had its PTE rewritten.
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(moved, ts.compactionPagesMoved);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpCompaction, MakesCollapsePossibleAgain)
{
    // The full recovery loop in miniature: fragmentation defeats
    // collapse, kcompactd reconstitutes a block, collapse succeeds.
    thp::ThpConfig cfg;
    cfg.khugepaged = true;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.populate4K(FramesPerLargePage, /*defrag=*/false);

    ASSERT_FALSE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    f.kernel.thpTick(); // compacts, then khugepaged collapses
    EXPECT_GT(f.kernel.thp().stats().collapses, 0u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Large2M);
    EXPECT_GT(f.kernel.thp().stats().daemonCycles, 0u);

    // Every ThpStats field reaches the report through its thp_* registry
    // counter, with the same value.
    const thp::ThpStats &ts = f.kernel.thp().stats();
    obs::MetricsRegistry &mr = f.machine.metrics();
    const std::pair<const char *, std::uint64_t> mirrored[] = {
        {"thp_ranges_scanned", ts.rangesScanned},
        {"thp_collapses", ts.collapses},
        {"thp_collapse_failed_no_block", ts.collapseFailedNoBlock},
        {"thp_splits", ts.splits},
        {"thp_compaction_blocks_reclaimed", ts.compactionBlocksReclaimed},
        {"thp_compaction_pages_moved", ts.compactionPagesMoved},
        {"thp_compaction_failures", ts.compactionFailures},
        {"thp_daemon_cycles", ts.daemonCycles},
    };
    for (const auto &[name, value] : mirrored)
        EXPECT_EQ(mr.counter(name).value, value) << name;
}

TEST(ThpCoverage, TracksPromotionAndDemotion)
{
    Fixture f;
    f.populate4K(2 * FramesPerLargePage);
    EXPECT_EQ(f.kernel.thp().coverage(f.proc), 0.0);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 0.5, 1e-9);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base + LargePageSize,
                                          nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 1.0, 1e-9);
    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base, nullptr));
    EXPECT_NEAR(f.kernel.thp().coverage(f.proc), 0.5, 1e-9);
}

/** Walk one replica tree raw (the tree a core on that socket uses). */
pt::Pte
walkReplica(mem::PhysicalMemory &pm, Pfn root, VirtAddr va,
            PageSizeKind *size_out)
{
    Pfn table = root;
    for (int level = 4; level >= 1; --level) {
        pt::Pte entry{pm.table(table)[ptIndex(va, ptLevel(level))]};
        if (!entry.present())
            return pt::Pte{};
        if (level == 2 && entry.huge()) {
            *size_out = PageSizeKind::Large2M;
            return entry;
        }
        if (level == 1) {
            *size_out = PageSizeKind::Base4K;
            return entry;
        }
        table = entry.pfn();
    }
    return pt::Pte{};
}

TEST(ThpMitosis, CollapseAndSplitKeepEveryReplicaCoherent)
{
    Fixture f(Fixture::Backend::Mitosis);
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();

    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    EXPECT_EQ(f.mitosis.stats().hugeCollapses, 1u);

    // Every replica root resolves the collapsed range to the same
    // huge leaf, and pt_dump agrees on the leaf population per root.
    analysis::PtAnalyzer analyzer(pm, f.kernel.ptOps());
    std::uint64_t primary =
        analyzer.snapshot(f.proc.roots()).totalLeafPtes();
    pt::WalkResult prim = f.kernel.ptOps().walk(f.proc.roots(), Base);
    for (SocketId s = 0; s < 2; ++s) {
        EXPECT_EQ(analyzer.snapshotFor(f.proc.roots(), s)
                      .totalLeafPtes(),
                  primary)
            << "socket " << s;
        PageSizeKind size = PageSizeKind::Base4K;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s), Base,
                                   &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Large2M) << s;
        EXPECT_EQ(leaf.pfn(), prim.leaf.pfn()) << s;
    }

    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base + PageSize,
                                       nullptr));
    EXPECT_EQ(f.mitosis.stats().hugeSplits, 1u);
    prim = f.kernel.ptOps().walk(f.proc.roots(), Base + 3 * PageSize);
    ASSERT_TRUE(prim.mapped);
    for (SocketId s = 0; s < 2; ++s) {
        PageSizeKind size = PageSizeKind::Large2M;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s),
                                   Base + 3 * PageSize, &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Base4K) << s;
        EXPECT_EQ(leaf.pfn(), prim.leaf.pfn()) << s;
        // The split leaf table is replicated: each root's L2 slot
        // must reference the copy local to its socket.
        Pfn root = f.proc.roots().rootFor(s);
        Pfn table = root;
        for (int level = 4; level > 2; --level) {
            table = pt::Pte{pm.table(table)[ptIndex(Base,
                                                    ptLevel(level))]}
                        .pfn();
        }
        pt::Pte l2{pm.table(table)[ptIndex(Base, PtLevel::L2)]};
        ASSERT_TRUE(l2.present() && !l2.huge()) << s;
        EXPECT_EQ(pm.socketOf(l2.pfn()), s) << s;
    }
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpLazy, CollapseIsEagerAndSplitDrainsAtFaultTime)
{
    Fixture f(Fixture::Backend::Lazy);
    f.populate4K(FramesPerLargePage);
    auto &pm = f.machine.physmem();

    // Drain whatever the populate queued so we start coherent.
    for (SocketId s = 0; s < 2; ++s)
        f.lazy.onTranslationFault(f.proc.roots(), s, Base, nullptr);

    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    // A collapse rewrites a *present* slot: eager in every replica,
    // and the dead leaf table's queued messages were purged.
    for (SocketId s = 0; s < 2; ++s) {
        PageSizeKind size = PageSizeKind::Base4K;
        pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(s), Base,
                                   &size);
        ASSERT_TRUE(leaf.present()) << s;
        EXPECT_EQ(size, PageSizeKind::Large2M) << s;
    }

    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base, nullptr));
    // The fresh leaf table's 512 installs are lazy: a remote replica
    // may still see an empty table until its queue drains at fault
    // time — exactly the library-OS design.
    SocketId remote = 1;
    bool drained = f.lazy.onTranslationFault(f.proc.roots(), remote,
                                             Base + 9 * PageSize,
                                             nullptr);
    (void)drained; // may already be coherent if nothing was queued
    PageSizeKind size = PageSizeKind::Large2M;
    pt::Pte leaf = walkReplica(pm, f.proc.roots().rootFor(remote),
                               Base + 9 * PageSize, &size);
    ASSERT_TRUE(leaf.present());
    EXPECT_EQ(size, PageSizeKind::Base4K);
    EXPECT_EQ(f.lazy.pendingFor(remote), 0u);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpTick, ExecContextClockDrivesTheDaemons)
{
    thp::ThpConfig cfg;
    cfg.khugepaged = true;
    cfg.kcompactd = true;
    Fixture f(Fixture::Backend::Native, cfg);
    f.populate4K(2 * FramesPerLargePage, /*defrag=*/false);

    ExecContext ctx(f.kernel, f.proc);
    ctx.addThread(0);
    ctx.enableThpTicks(50000);
    ASSERT_EQ(f.kernel.thp().coverage(f.proc), 0.0);
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        ctx.access(0,
                   Base + rng.below(2 * FramesPerLargePage) * PageSize,
                   false);
    }
    EXPECT_GT(f.kernel.thp().stats().collapses, 0u);
    EXPECT_GT(f.kernel.thp().coverage(f.proc), 0.0);
    f.kernel.destroyProcess(f.proc);
}

TEST(ThpTick, DisabledDaemonsAreANoop)
{
    Fixture f;
    f.populate4K(FramesPerLargePage);
    f.kernel.thpTick();
    const thp::ThpStats &ts = f.kernel.thp().stats();
    EXPECT_EQ(ts.collapses, 0u);
    EXPECT_EQ(ts.rangesScanned, 0u);
    EXPECT_EQ(ts.compactionPagesMoved, 0u);
    EXPECT_EQ(f.kernel.ptOps().walk(f.proc.roots(), Base).size,
              PageSizeKind::Base4K);
}

TEST(ThpTeardown, LifecycleBalancesPhysicalMemory)
{
    // Collapse + split + partial munmap, then destroy: every frame
    // must come back.
    thp::ThpConfig cfg;
    cfg.splitPartial = true;
    Fixture f(Fixture::Backend::Mitosis, cfg);
    auto &pm = f.machine.physmem();
    std::uint64_t free0 = pm.freeFrames(0);
    std::uint64_t free1 = pm.freeFrames(1);

    f.populate4K(2 * FramesPerLargePage);
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base, nullptr));
    ASSERT_TRUE(f.kernel.thp().collapseAt(f.proc, Base + LargePageSize,
                                          nullptr));
    f.kernel.munmap(f.proc, Base + 3 * PageSize, 5 * PageSize);
    ASSERT_TRUE(f.kernel.thp().splitAt(f.proc, Base + LargePageSize,
                                       nullptr));
    f.kernel.destroyProcess(f.proc);

    Process &fresh = f.kernel.createProcess("again", 0);
    f.kernel.destroyProcess(fresh);
    // The baselines were taken with f.proc alive, whose replicated
    // root held one frame per socket; with no process left those come
    // back too.
    EXPECT_EQ(pm.freeFrames(0), free0 + 1);
    EXPECT_EQ(pm.freeFrames(1), free1 + 1);
    EXPECT_EQ(pm.stats(0).dataPages, 0u);
    EXPECT_EQ(pm.stats(0).dataLargePages, 0u);
}

} // namespace
} // namespace mitosim::os
