/**
 * @file
 * Unit tests for pt::PageTableOps with the native backend: tree
 * construction, walks, unmap/protect, iteration, destruction, and the
 * three page-table placement policies of §3.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/base/logging.h"
#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"
#include "src/pvops/native_backend.h"

namespace mitosim::pt
{
namespace
{

numa::TopologyConfig
smallTopo()
{
    numa::TopologyConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    cfg.memPerSocket = 16ull << 20;
    return cfg;
}

class PtOpsTest : public ::testing::Test
{
  protected:
    PtOpsTest()
        : topo(smallTopo()), pm(topo), native(pm), ops(pm, native)
    {
        EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
    }

    ~PtOpsTest() override { ops.destroy(roots, nullptr); }

    Pfn
    dataFrame(SocketId s, VirtAddr va)
    {
        auto pfn = pm.allocData(s, 1, va);
        EXPECT_TRUE(pfn.has_value());
        frames.push_back(*pfn);
        return *pfn;
    }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    pvops::NativeBackend native;
    PageTableOps ops;
    RootSet roots;
    PtPlacementPolicy policy;
    std::vector<Pfn> frames;
};

TEST_F(PtOpsTest, CreateRootPlacesOnRequestedSocket)
{
    EXPECT_NE(roots.primaryRoot, InvalidPfn);
    EXPECT_EQ(pm.socketOf(roots.primaryRoot), 0);
    EXPECT_EQ(pm.meta(roots.primaryRoot).level, 4);
    EXPECT_EQ(roots.rootFor(3), roots.primaryRoot);
}

TEST_F(PtOpsTest, Map4KThenWalkFindsLeaf)
{
    VirtAddr va = 0x12345000;
    Pfn data = dataFrame(1, va);
    ASSERT_TRUE(ops.map4K(roots, 1, va, data, PteWrite | PteUser, policy,
                          0, nullptr));
    WalkResult res = ops.walk(roots, va);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.leaf.pfn(), data);
    EXPECT_TRUE(res.leaf.writable());
    EXPECT_EQ(res.size, PageSizeKind::Base4K);
}

TEST_F(PtOpsTest, WalkUnmappedReturnsNotMapped)
{
    EXPECT_FALSE(ops.walk(roots, 0xdead000).mapped);
}

TEST_F(PtOpsTest, MapAllocatesIntermediateLevels)
{
    Pfn data = dataFrame(0, 0x40000000ull);
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull, data, PteWrite, policy,
                          0, nullptr));
    // Root + L3 + L2 + L1 = 4 pages.
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s) {
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    }
    EXPECT_EQ(total, 4u);
}

TEST_F(PtOpsTest, AdjacentPagesShareIntermediates)
{
    ASSERT_TRUE(ops.map4K(roots, 1, 0x1000, dataFrame(0, 0x1000), PteWrite,
                          policy, 0, nullptr));
    ASSERT_TRUE(ops.map4K(roots, 1, 0x2000, dataFrame(0, 0x2000), PteWrite,
                          policy, 0, nullptr));
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s) {
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    }
    EXPECT_EQ(total, 4u); // still one chain
}

TEST_F(PtOpsTest, Map2MSetsHugeLeafAtL2)
{
    auto head = pm.allocDataLarge(2, 1);
    ASSERT_TRUE(head.has_value());
    VirtAddr va = 0x40000000ull; // 2MB aligned
    ASSERT_TRUE(ops.map2M(roots, 1, va, *head, PteWrite, policy, 0,
                          nullptr));
    WalkResult res = ops.walk(roots, va);
    EXPECT_TRUE(res.mapped);
    EXPECT_EQ(res.size, PageSizeKind::Large2M);
    EXPECT_TRUE(res.leaf.huge());
    EXPECT_EQ(res.leaf.pfn(), *head);
    // Walking an interior address reaches the same leaf.
    WalkResult mid = ops.walk(roots, va + 123 * PageSize);
    EXPECT_TRUE(mid.mapped);
    EXPECT_EQ(mid.leaf.pfn(), *head);
    pm.freeDataLarge(*head);
    ops.unmap(roots, va, nullptr);
}

TEST_F(PtOpsTest, Map2MRejectsUnaligned)
{
    auto head = pm.allocDataLarge(0, 1);
    ASSERT_TRUE(head.has_value());
    EXPECT_THROW(ops.map2M(roots, 1, 0x1000, *head, PteWrite, policy, 0,
                           nullptr),
                 SimError);
    pm.freeDataLarge(*head);
}

TEST_F(PtOpsTest, UnmapClearsLeafOnly)
{
    VirtAddr va = 0x5000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite, policy, 0,
                          nullptr));
    WalkResult res = ops.unmap(roots, va, nullptr);
    EXPECT_TRUE(res.mapped); // returns the old leaf
    EXPECT_FALSE(ops.walk(roots, va).mapped);
    // Intermediate tables are retained (Linux-style).
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    EXPECT_EQ(total, 4u);
}

TEST_F(PtOpsTest, UnmapMissingIsNoop)
{
    WalkResult res = ops.unmap(roots, 0x7777000, nullptr);
    EXPECT_FALSE(res.mapped);
}

TEST_F(PtOpsTest, ProtectTogglesWritable)
{
    VirtAddr va = 0x9000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite, policy, 0,
                          nullptr));
    ASSERT_TRUE(ops.protect(roots, va, 0, PteWrite, nullptr));
    EXPECT_FALSE(ops.walk(roots, va).leaf.writable());
    ASSERT_TRUE(ops.protect(roots, va, PteWrite, 0, nullptr));
    EXPECT_TRUE(ops.walk(roots, va).leaf.writable());
}

TEST_F(PtOpsTest, ClearAccessedDirty)
{
    VirtAddr va = 0xa000;
    ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va),
                          PteWrite | PteAccessed | PteDirty, policy, 0,
                          nullptr));
    ASSERT_TRUE(ops.clearAccessedDirty(roots, va, PteAdMask, nullptr));
    WalkResult res = ops.readLeaf(roots, va, nullptr);
    EXPECT_FALSE(res.leaf.accessed());
    EXPECT_FALSE(res.leaf.dirty());
}

TEST_F(PtOpsTest, ForEachLeafVisitsAllMappings)
{
    std::set<VirtAddr> expect;
    for (int i = 0; i < 20; ++i) {
        VirtAddr va = 0x100000ull + static_cast<VirtAddr>(i) * PageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite, policy,
                              0, nullptr));
        expect.insert(va);
    }
    std::set<VirtAddr> seen;
    ops.forEachLeaf(roots, [&](VirtAddr va, PteLoc, Pte, PageSizeKind) {
        seen.insert(va);
    });
    EXPECT_EQ(seen, expect);
}

TEST_F(PtOpsTest, ForEachTableCountsMatchLiveStats)
{
    ASSERT_TRUE(ops.map4K(roots, 1, 0x1000, dataFrame(0, 0x1000), PteWrite,
                          policy, 0, nullptr));
    ASSERT_TRUE(ops.map4K(roots, 1, 0x80000000ull,
                          dataFrame(0, 0x80000000ull), PteWrite, policy, 0,
                          nullptr));
    std::map<int, int> per_level;
    ops.forEachTable(roots, [&](Pfn, int level) { ++per_level[level]; });
    EXPECT_EQ(per_level[4], 1);
    EXPECT_EQ(per_level[3], 1); // same L3 (both under first 512GB)
    EXPECT_EQ(per_level[2], 2);
    EXPECT_EQ(per_level[1], 2);
}

TEST_F(PtOpsTest, DestroyFreesEverything)
{
    for (int i = 0; i < 10; ++i) {
        VirtAddr va = 0x200000ull + static_cast<VirtAddr>(i) * PageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite,
                              policy, 0, nullptr));
    }
    ops.destroy(roots, nullptr);
    std::uint64_t total = 0;
    for (SocketId s = 0; s < 4; ++s)
        for (int level = 1; level <= 4; ++level)
            total += pm.ptPagesAt(s, level);
    EXPECT_EQ(total, 0u);
    EXPECT_EQ(roots.primaryRoot, InvalidPfn);
    // Re-create so the fixture destructor has something to destroy.
    EXPECT_TRUE(ops.createRoot(roots, 1, 0, nullptr));
}

TEST_F(PtOpsTest, FirstTouchPlacementFollowsFaultingSocket)
{
    // Map pages "from" socket 2: new PT pages land there.
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull,
                          dataFrame(2, 0x40000000ull), PteWrite, policy, 2,
                          nullptr));
    // The L3/L2/L1 created by this call are on socket 2 (root existed).
    EXPECT_EQ(pm.ptPagesAt(2, 3), 1u);
    EXPECT_EQ(pm.ptPagesAt(2, 2), 1u);
    EXPECT_EQ(pm.ptPagesAt(2, 1), 1u);
}

TEST_F(PtOpsTest, FixedPlacementOverridesFaultingSocket)
{
    policy.mode = PtPlacement::Fixed;
    policy.fixedSocket = 3;
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull,
                          dataFrame(0, 0x40000000ull), PteWrite, policy, 0,
                          nullptr));
    EXPECT_EQ(pm.ptPagesAt(3, 3), 1u);
    EXPECT_EQ(pm.ptPagesAt(3, 2), 1u);
    EXPECT_EQ(pm.ptPagesAt(3, 1), 1u);
}

TEST_F(PtOpsTest, InterleavePlacementSpreadsTables)
{
    policy.mode = PtPlacement::Interleave;
    // Map pages in distinct 2MB regions so each needs a fresh L1 table.
    for (int i = 0; i < 8; ++i) {
        VirtAddr va = 0x80000000ull +
                      static_cast<VirtAddr>(i) * LargePageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite, policy,
                              0, nullptr));
    }
    // L1 tables must be spread over all four sockets.
    int sockets_with_l1 = 0;
    for (SocketId s = 0; s < 4; ++s) {
        if (pm.ptPagesAt(s, 1) > 0)
            ++sockets_with_l1;
    }
    EXPECT_EQ(sockets_with_l1, 4);
}

TEST_F(PtOpsTest, KernelCostChargesForPtAllocations)
{
    pvops::KernelCost cost;
    ASSERT_TRUE(ops.map4K(roots, 1, 0x40000000ull,
                          dataFrame(0, 0x40000000ull), PteWrite, policy, 0,
                          &cost));
    EXPECT_EQ(cost.ptPagesAllocated, 3u); // L3, L2, L1
    EXPECT_GT(cost.cycles, 0u);
    EXPECT_GE(cost.pteWrites, 4u); // 3 intermediate links + leaf
}

TEST_F(PtOpsTest, CreateRootTwicePanics)
{
    RootSet other;
    EXPECT_TRUE(ops.createRoot(other, 2, 1, nullptr));
    EXPECT_THROW(ops.createRoot(other, 2, 1, nullptr), SimError);
    ops.destroy(other, nullptr);
}

TEST_F(PtOpsTest, ForRangeVisitsIntersectingLeavesInOrder)
{
    // Sparse layout crossing an L1-table boundary (2 MB), with a hole.
    VirtAddr base = 0x40000000ull;
    for (std::uint64_t page : {0ull, 1ull, 3ull, 511ull, 512ull}) {
        VirtAddr va = base + page * PageSize;
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va), PteWrite,
                              policy, 0, nullptr));
    }

    std::vector<VirtAddr> seen;
    ops.forRange(roots, base + PageSize, base + 513 * PageSize,
                 [&](VirtAddr va, PteLoc loc, Pte pte, PageSizeKind sz) {
                     EXPECT_TRUE(pte.present());
                     EXPECT_EQ(sz, PageSizeKind::Base4K);
                     EXPECT_EQ(Pte{pm.table(loc.ptPfn)[loc.index]}, pte);
                     seen.push_back(va);
                 });
    EXPECT_EQ(seen, (std::vector<VirtAddr>{base + 1 * PageSize,
                                           base + 3 * PageSize,
                                           base + 511 * PageSize,
                                           base + 512 * PageSize}));

    // A 2 MB leaf partially overlapped by the range is still visited.
    VirtAddr huge_va = 0x80000000ull;
    auto head = pm.allocDataLarge(1, 1);
    ASSERT_TRUE(head.has_value());
    ASSERT_TRUE(ops.map2M(roots, 1, huge_va, *head, PteWrite, policy, 0,
                          nullptr));
    int huge_seen = 0;
    ops.forRange(roots, huge_va + LargePageSize / 2,
                 huge_va + LargePageSize,
                 [&](VirtAddr va, PteLoc, Pte, PageSizeKind sz) {
                     EXPECT_EQ(va, huge_va);
                     EXPECT_EQ(sz, PageSizeKind::Large2M);
                     ++huge_seen;
                 });
    EXPECT_EQ(huge_seen, 1);
    ops.unmap(roots, huge_va, nullptr);
    pm.freeDataLarge(*head);
}

TEST_F(PtOpsTest, ReadOnlyOpsOnACloneCopyNoTableChunk)
{
    // A small 4 KB tree plus one 2 MB leaf, then a copy-on-write clone
    // of the whole machine state.
    for (VirtAddr va = 0x40000000; va < 0x40000000 + 8 * PageSize;
         va += PageSize) {
        ASSERT_TRUE(ops.map4K(roots, 1, va, dataFrame(0, va),
                              PteWrite | PteUser, policy, 0, nullptr));
    }
    auto head = pm.allocDataLarge(1, 1);
    ASSERT_TRUE(head.has_value());
    ASSERT_TRUE(ops.map2M(roots, 1, 0x80000000, *head, PteUser, policy, 0,
                          nullptr));

    mem::PhysicalMemory clone(topo);
    clone.cloneStateFrom(pm);
    pvops::NativeBackend clone_native(clone);
    PageTableOps clone_ops(clone, clone_native);

    // Every pure read: walk, tableFor (descend), forRange
    // (forEachLeafRun), readLeaf (walk + the backend's readPte),
    // forEachLeaf and forEachTable.
    EXPECT_TRUE(clone_ops.walk(roots, 0x40001000).mapped);
    EXPECT_NE(clone_ops.tableFor(roots, 0x40001000, 1), InvalidPfn);
    unsigned leaves = 0;
    clone_ops.forRange(roots, 0, 1ull << 40,
                       [&](VirtAddr, PteLoc, Pte, PageSizeKind) {
                           ++leaves;
                       });
    EXPECT_EQ(leaves, 9u);
    EXPECT_TRUE(clone_ops.readLeaf(roots, 0x80000000, nullptr).mapped);
    leaves = 0;
    clone_ops.forEachLeaf(roots, [&](VirtAddr, PteLoc, Pte, PageSizeKind) {
        ++leaves;
    });
    EXPECT_EQ(leaves, 9u);
    unsigned tables = 0;
    clone_ops.forEachTable(roots, [&](Pfn, int) { ++tables; });
    EXPECT_EQ(tables, 5u);
    EXPECT_EQ(clone.tableArenaStats().detaches, 0u);

    pm.freeDataLarge(*head);
}

} // namespace
} // namespace mitosim::pt
