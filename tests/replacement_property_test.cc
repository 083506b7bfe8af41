/**
 * @file
 * Differential property test of the replacement policy of the cache,
 * TLB and paging-structure-cache models.
 *
 * Each model is driven by seeded random op mixes side by side with a
 * test-local reference: a plain copy of the stamp-scan model the
 * simulator used before replacement moved to O(1) recency lists — one
 * 32-bit stamp per way from a per-structure clock, every hit and fill
 * re-stamps, the victim is the first free way or else the earliest way
 * with the lowest stamp, and an insert stops at the first free way (so
 * an entry resident behind an invalidation hole is installed a second
 * time). The references have none of the models' host-side shortcuts
 * (MRU memos, never-filled and single-ASID early-outs), so the test
 * also checks that those shortcuts are exact — with one known limit:
 * while a 4 KB and a 2 MB translation of the same address are both
 * resident, the TLB's lookup memo answers with the most recently used
 * one where a plain probe prefers the 4 KB one, so the TLB mix keeps
 * the two page sizes in disjoint regions.
 *
 * After every op the results, the evicted lines, the full contents in
 * slot order (forEachLine / forEachEntry) and the statistics must be
 * equal. Address pools are a few times the capacity, so sets fill,
 * evict and get punched with invalidation holes in front of resident
 * entries; each run asserts that such holes were actually exercised.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/cache/set_assoc_cache.h"
#include "src/tlb/paging_structure_cache.h"
#include "src/tlb/tlb.h"

namespace mitosim
{
namespace
{

constexpr std::uint64_t Free = ~0ull;

// ---------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------

/** One set-associative array of the stamp-scan model. */
struct RefSets
{
    unsigned ways;
    std::uint64_t sets;
    std::vector<std::uint64_t> tags; // Free = empty
    std::vector<std::uint32_t> stamps;

    RefSets(std::uint64_t num_sets, unsigned num_ways)
        : ways(num_ways), sets(num_sets), tags(num_sets * num_ways, Free),
          stamps(num_sets * num_ways, 0)
    {
    }

    std::size_t base(std::uint64_t key) const
    {
        return static_cast<std::size_t>(key & (sets - 1)) * ways;
    }

    /**
     * The insert scan: a slot matching @p same, or the first free slot,
     * wins at once; else the earliest lowest stamp.
     */
    template <typename Same>
    std::size_t
    insertSlot(std::size_t b, Same &&same) const
    {
        std::size_t victim = b;
        for (unsigned w = 0; w < ways; ++w) {
            std::size_t i = b + w;
            if (same(i) || tags[i] == Free)
                return i;
            if (stamps[i] < stamps[victim])
                victim = i;
        }
        return victim;
    }
};

/** The stamp-scan SetAssocCache. */
class RefCache
{
  public:
    RefCache(std::uint64_t capacity, unsigned ways)
        : s(capacity / LineSize / ways, ways)
    {
    }

    bool
    lookup(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        std::size_t b = s.base(line);
        for (unsigned w = 0; w < s.ways; ++w) {
            if (s.tags[b + w] == line) {
                s.stamps[b + w] = ++clock;
                ++stats.hits;
                return true;
            }
        }
        ++stats.misses;
        return false;
    }

    std::uint64_t
    insert(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        std::size_t i = s.insertSlot(
            s.base(line), [&](std::size_t j) { return s.tags[j] == line; });
        std::uint64_t old = s.tags[i];
        if (old == line || old == Free) {
            s.tags[i] = line;
            s.stamps[i] = ++clock;
            return Free;
        }
        ++stats.evictions;
        s.tags[i] = line;
        s.stamps[i] = ++clock;
        return old;
    }

    bool
    probeInsert(PhysAddr pa)
    {
        if (lookup(pa))
            return true;
        insert(pa);
        return false;
    }

    void
    invalidateLine(PhysAddr pa)
    {
        std::uint64_t line = pa >> LineShift;
        std::size_t b = s.base(line);
        for (unsigned w = 0; w < s.ways; ++w) {
            if (s.tags[b + w] == line) {
                s.tags[b + w] = Free;
                ++stats.invalidations;
                return;
            }
        }
    }

    void
    invalidateFrame(Pfn pfn)
    {
        for (unsigned i = 0; i < PageSize / LineSize; ++i)
            invalidateLine(pfnToAddr(pfn) + i * LineSize);
    }

    void flush() { std::fill(s.tags.begin(), s.tags.end(), Free); }

    std::vector<std::pair<std::size_t, std::uint64_t>>
    contents() const
    {
        std::vector<std::pair<std::size_t, std::uint64_t>> out;
        for (std::size_t i = 0; i < s.tags.size(); ++i) {
            if (s.tags[i] != Free)
                out.emplace_back(i, s.tags[i]);
        }
        return out;
    }

    /** Whether inserting @p pa now would duplicate a resident line. */
    bool
    residentBehindHole(PhysAddr pa) const
    {
        std::uint64_t line = pa >> LineShift;
        std::size_t b = s.base(line);
        bool hole = false;
        for (unsigned w = 0; w < s.ways; ++w) {
            if (s.tags[b + w] == Free)
                hole = true;
            else if (s.tags[b + w] == line)
                return hole;
        }
        return false;
    }

    cache::CacheStats stats;

  private:
    RefSets s;
    std::uint32_t clock = 0;
};

/** The stamp-scan TwoLevelTlb. */
class RefTlb
{
  public:
    explicit RefTlb(const tlb::TlbConfig &c)
        : cfg(c), l1Small(c.l1Entries4K / c.l1Ways, c.l1Ways),
          l1Large(c.l1Entries2M / c.l1Ways, c.l1Ways),
          l2(c.l2Entries / c.l2Ways, c.l2Ways),
          e1Small(l1Small.tags.size()), e1Large(l1Large.tags.size()),
          e2(l2.tags.size()), a1Small(l1Small.tags.size()),
          a1Large(l1Large.tags.size()), a2(l2.tags.size())
    {
    }

    void setAsid(Asid a) { asid = a; }

    tlb::TlbLookupResult
    lookup(VirtAddr va)
    {
        tlb::TlbLookupResult res;
        auto hit = [&](int level, Cycles lat, const tlb::TlbEntry &e) {
            res.hit = true;
            res.hitLevel = level;
            res.latency = lat;
            res.entry = e;
            (level == 1 ? stats.l1Hits : stats.l2Hits) += 1;
            return res;
        };
        if (std::size_t i = find(l1Small, a1Small, va >> PageShift);
            i != Npos) {
            l1Small.stamps[i] = ++clock;
            return hit(1, cfg.l1HitLatency, e1Small[i]);
        }
        if (std::size_t i = find(l1Large, a1Large, va >> LargePageShift);
            i != Npos) {
            l1Large.stamps[i] = ++clock;
            return hit(1, cfg.l1HitLatency, e1Large[i]);
        }
        if (std::size_t i = find(l2, a2, va >> PageShift); i != Npos) {
            l2.stamps[i] = ++clock;
            tlb::TlbEntry e = e2[i];
            put(l1Small, a1Small, e1Small, va >> PageShift, e);
            return hit(2, cfg.l2HitLatency, e);
        }
        if (cfg.l2Holds2M) {
            if (std::size_t i = find(l2, a2, (va >> LargePageShift) | Big);
                i != Npos) {
                l2.stamps[i] = ++clock;
                tlb::TlbEntry e = e2[i];
                put(l1Large, a1Large, e1Large, va >> LargePageShift, e);
                return hit(2, cfg.l2HitLatency, e);
            }
        }
        ++stats.misses;
        res.latency = cfg.l2HitLatency;
        return res;
    }

    void
    insert(VirtAddr va, const tlb::TlbEntry &e)
    {
        if (e.size == PageSizeKind::Base4K) {
            put(l1Small, a1Small, e1Small, va >> PageShift, e);
            put(l2, a2, e2, va >> PageShift, e);
        } else {
            put(l1Large, a1Large, e1Large, va >> LargePageShift, e);
            if (cfg.l2Holds2M)
                put(l2, a2, e2, (va >> LargePageShift) | Big, e);
        }
    }

    void
    invalidatePage(VirtAddr va)
    {
        drop(l1Small, va >> PageShift);
        drop(l1Large, va >> LargePageShift);
        drop(l2, va >> PageShift);
        drop(l2, (va >> LargePageShift) | Big);
        ++stats.singleInvalidations;
    }

    void
    flushAll()
    {
        for (RefSets *s : {&l1Small, &l1Large, &l2})
            std::fill(s->tags.begin(), s->tags.end(), Free);
        ++stats.flushes;
    }

    void
    flushAsid(Asid a)
    {
        dropAsid(l1Small, a1Small, a);
        dropAsid(l1Large, a1Large, a);
        dropAsid(l2, a2, a);
        ++stats.asidFlushes;
    }

    using Entry = std::tuple<VirtAddr, Asid, Pfn, bool, PageSizeKind>;

    std::vector<Entry>
    contents() const
    {
        std::vector<Entry> out;
        auto visit = [&](const RefSets &s, const std::vector<Asid> &as,
                         const std::vector<tlb::TlbEntry> &es) {
            for (std::size_t i = 0; i < s.tags.size(); ++i) {
                if (s.tags[i] == Free)
                    continue;
                VirtAddr va = es[i].size == PageSizeKind::Large2M
                                  ? (s.tags[i] & ~Big) << LargePageShift
                                  : s.tags[i] << PageShift;
                out.emplace_back(va, as[i], es[i].pfn, es[i].writable,
                                 es[i].size);
            }
        };
        visit(l1Small, a1Small, e1Small);
        visit(l1Large, a1Large, e1Large);
        visit(l2, a2, e2);
        return out;
    }

    /** Whether a 4 KB insert of @p va would duplicate an L2 entry. */
    bool
    residentBehindHole(VirtAddr va) const
    {
        std::uint64_t tag = va >> PageShift;
        std::size_t b = l2.base(tag);
        bool hole = false;
        for (unsigned w = 0; w < l2.ways; ++w) {
            if (l2.tags[b + w] == Free)
                hole = true;
            else if (l2.tags[b + w] == tag && a2[b + w] == asid)
                return hole;
        }
        return false;
    }

    tlb::TlbStats stats;

  private:
    static constexpr std::size_t Npos = ~std::size_t{0};
    static constexpr std::uint64_t Big = 1ull << 63;

    std::size_t
    find(const RefSets &s, const std::vector<Asid> &as,
         std::uint64_t tag) const
    {
        std::size_t b = s.base(tag);
        for (unsigned w = 0; w < s.ways; ++w) {
            if (s.tags[b + w] == tag && as[b + w] == asid)
                return b + w;
        }
        return Npos;
    }

    void
    put(RefSets &s, std::vector<Asid> &as, std::vector<tlb::TlbEntry> &es,
        std::uint64_t tag, const tlb::TlbEntry &e)
    {
        std::size_t i = s.insertSlot(s.base(tag), [&](std::size_t j) {
            return s.tags[j] == tag && as[j] == asid;
        });
        s.tags[i] = tag;
        as[i] = asid;
        es[i] = e;
        s.stamps[i] = ++clock;
    }

    static void
    drop(RefSets &s, std::uint64_t tag)
    {
        std::size_t b = s.base(tag);
        for (unsigned w = 0; w < s.ways; ++w) {
            if (s.tags[b + w] == tag)
                s.tags[b + w] = Free;
        }
    }

    static void
    dropAsid(RefSets &s, const std::vector<Asid> &as, Asid a)
    {
        for (std::size_t i = 0; i < s.tags.size(); ++i) {
            if (as[i] == a)
                s.tags[i] = Free;
        }
    }

    tlb::TlbConfig cfg;
    RefSets l1Small, l1Large, l2;
    std::vector<tlb::TlbEntry> e1Small, e1Large, e2;
    std::vector<Asid> a1Small, a1Large, a2;
    Asid asid = 0;
    std::uint32_t clock = 0;
};

/** The stamp-scan PagingStructureCache. */
class RefPwc
{
  public:
    explicit RefPwc(const tlb::PwcConfig &c)
        : levels{Level(c.pml4eEntries, 39), Level(c.pdpteEntries, 30),
                 Level(c.pdeEntries, 21)}
    {
    }

    void setAsid(Asid a) { asid = a; }

    tlb::PagingStructureCache::Probe
    lookup(Pfn cr3, VirtAddr va)
    {
        tlb::PagingStructureCache::Probe p;
        // Deepest level first: pde (start at 1), pdpte (2), pml4e (3).
        for (int start = 1; start <= 3; ++start) {
            Level &l = levels[3 - start];
            std::uint64_t tag = va >> l.shift;
            for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
                if (l.tags[i] == tag && l.cr3s[i] == cr3 &&
                    l.asids[i] == asid) {
                    l.stamps[i] = ++clock;
                    ++stats.hits;
                    p.startLevel = start;
                    p.tablePfn = l.tables[i];
                    return p;
                }
            }
        }
        ++stats.misses;
        p.startLevel = 4;
        p.tablePfn = cr3;
        return p;
    }

    void
    fill(Pfn cr3, VirtAddr va, int level, Pfn table)
    {
        Level &l = levels[3 - level];
        std::uint64_t tag = va >> l.shift;
        std::size_t victim = 0;
        for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
            if (l.cr3s[i] == cr3 && l.asids[i] == asid && l.tags[i] == tag) {
                l.tables[i] = table;
                l.stamps[i] = ++clock;
                return;
            }
            if (l.cr3s[i] == InvalidPfn) {
                victim = i;
                break;
            }
            if (l.stamps[i] < l.stamps[victim])
                victim = i;
        }
        l.cr3s[victim] = cr3;
        l.asids[victim] = asid;
        l.tags[victim] = tag;
        l.tables[victim] = table;
        l.stamps[victim] = ++clock;
    }

    void
    invalidate(VirtAddr va)
    {
        for (Level &l : levels) {
            for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
                if (l.tags[i] == va >> l.shift)
                    l.cr3s[i] = InvalidPfn;
            }
        }
    }

    void
    flushAll()
    {
        for (Level &l : levels)
            std::fill(l.cr3s.begin(), l.cr3s.end(), InvalidPfn);
        ++stats.flushes;
    }

    void
    flushAsid(Asid a)
    {
        for (Level &l : levels) {
            for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
                if (l.asids[i] == a)
                    l.cr3s[i] = InvalidPfn;
            }
        }
        ++stats.asidFlushes;
    }

    using Entry = std::tuple<Pfn, Asid, int, Pfn>;

    std::vector<Entry>
    contents() const
    {
        std::vector<Entry> out;
        for (int k = 0; k < 3; ++k) {
            const Level &l = levels[k];
            for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
                if (l.cr3s[i] != InvalidPfn)
                    out.emplace_back(l.cr3s[i], l.asids[i], 3 - k,
                                     l.tables[i]);
            }
        }
        return out;
    }

    /** Whether a fill at @p level would duplicate a resident entry. */
    bool
    residentBehindHole(Pfn cr3, VirtAddr va, int level) const
    {
        const Level &l = levels[3 - level];
        bool hole = false;
        for (std::size_t i = 0; i < l.cr3s.size(); ++i) {
            if (l.cr3s[i] == InvalidPfn)
                hole = true;
            else if (l.tags[i] == va >> l.shift && l.cr3s[i] == cr3 &&
                     l.asids[i] == asid)
                return hole;
        }
        return false;
    }

    tlb::PwcStats stats;

  private:
    struct Level
    {
        Level(unsigned n, unsigned tag_shift)
            : tags(n, ~0ull), cr3s(n, InvalidPfn), asids(n, 0),
              tables(n, InvalidPfn), stamps(n, 0), shift(tag_shift)
        {
        }
        std::vector<std::uint64_t> tags;
        std::vector<Pfn> cr3s;
        std::vector<Asid> asids;
        std::vector<Pfn> tables;
        std::vector<std::uint32_t> stamps;
        unsigned shift;
    };

    Level levels[3]; // pml4e, pdpte, pde
    Asid asid = 0;
    std::uint32_t clock = 0;
};

// ---------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------

std::vector<std::pair<std::size_t, std::uint64_t>>
contentsOf(const cache::SetAssocCache &c)
{
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    c.forEachLine([&](std::size_t slot, std::uint64_t line) {
        out.emplace_back(slot, line);
    });
    return out;
}

std::vector<RefTlb::Entry>
contentsOf(const tlb::TwoLevelTlb &t)
{
    std::vector<RefTlb::Entry> out;
    t.forEachEntry([&](VirtAddr va, Asid a, const tlb::TlbEntry &e) {
        out.emplace_back(va, a, e.pfn, e.writable, e.size);
    });
    return out;
}

std::vector<RefPwc::Entry>
contentsOf(const tlb::PagingStructureCache &p)
{
    std::vector<RefPwc::Entry> out;
    p.forEachEntry([&](Pfn cr3, Asid a, int level, Pfn table) {
        out.emplace_back(cr3, a, level, table);
    });
    return out;
}

void
expectSameStats(const cache::CacheStats &a, const cache::CacheStats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.invalidations, b.invalidations);
}

void
expectSameStats(const tlb::TlbStats &a, const tlb::TlbStats &b)
{
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.singleInvalidations, b.singleInvalidations);
    EXPECT_EQ(a.asidFlushes, b.asidFlushes);
}

void
expectSameStats(const tlb::PwcStats &a, const tlb::PwcStats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.asidFlushes, b.asidFlushes);
}

constexpr int Seeds = 12;
constexpr int OpsPerSeed = 4000;

// ---------------------------------------------------------------------
// SetAssocCache
// ---------------------------------------------------------------------

TEST(ReplacementProperty, CacheMatchesStampScanModel)
{
    const std::pair<std::uint64_t, unsigned> shapes[] = {
        {4 * LineSize, 4},    // one set
        {64 * LineSize, 4},   // 16 sets
        {128 * LineSize, 8},  // 16 sets, L1D-like
        {256 * LineSize, 16}, // 16 sets, L3-like
    };
    std::uint64_t holes = 0;
    for (auto [capacity, ways] : shapes) {
        for (int seed = 1; seed <= Seeds; ++seed) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << " ways " << ways
                                            << " seed " << seed);
            cache::SetAssocCache c(capacity, ways);
            RefCache ref(capacity, ways);
            Rng rng(static_cast<std::uint64_t>(seed));
            // Lines of four 4 KB frames: 4x the largest capacity.
            auto pick = [&] {
                return rng.below(4 * (PageSize / LineSize)) * LineSize +
                       rng.below(LineSize);
            };
            for (int op = 0; op < OpsPerSeed; ++op) {
                PhysAddr pa = pick();
                std::uint64_t r = rng.below(100);
                if (r < 35) {
                    ASSERT_EQ(c.probeInsert(pa), ref.probeInsert(pa));
                } else if (r < 55) {
                    ASSERT_EQ(c.lookup(pa), ref.lookup(pa));
                } else if (r < 75) {
                    holes += ref.residentBehindHole(pa);
                    ASSERT_EQ(c.insert(pa), ref.insert(pa));
                } else if (r < 97) {
                    c.invalidateLine(pa);
                    ref.invalidateLine(pa);
                } else if (r < 99) {
                    c.invalidateFrame(addrToPfn(pa));
                    ref.invalidateFrame(addrToPfn(pa));
                } else {
                    c.flush();
                    ref.flush();
                }
                ASSERT_EQ(contentsOf(c), ref.contents()) << "op " << op;
                expectSameStats(c.stats(), ref.stats);
            }
        }
    }
    // Inserts of lines resident behind an invalidation hole happened.
    EXPECT_GT(holes, 0u);
}

// ---------------------------------------------------------------------
// TwoLevelTlb
// ---------------------------------------------------------------------

TEST(ReplacementProperty, TlbMatchesStampScanModel)
{
    std::uint64_t holes = 0;
    for (bool l2_holds_2m : {true, false}) {
        for (unsigned l1_ways : {2u, 4u}) {
            for (int seed = 1; seed <= Seeds; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "l2Holds2M " << l2_holds_2m << " l1Ways "
                             << l1_ways << " seed " << seed);
                tlb::TlbConfig cfg;
                cfg.l1Entries4K = 8;
                cfg.l1Entries2M = 4;
                cfg.l1Ways = l1_ways;
                cfg.l2Entries = 16;
                cfg.l2Ways = 4;
                cfg.l2Holds2M = l2_holds_2m;
                tlb::TwoLevelTlb t(cfg);
                RefTlb ref(cfg);
                Rng rng(static_cast<std::uint64_t>(seed) * 7919);
                Asid asid = 1;
                for (int op = 0; op < OpsPerSeed; ++op) {
                    // 32 4 KB pages (2x the L2) and one 2 MB page.
                    VirtAddr va = rng.below(3) * LargePageSize +
                                  rng.below(16) * PageSize +
                                  rng.below(PageSize);
                    std::uint64_t r = rng.below(100);
                    if (r < 40) {
                        tlb::TlbLookupResult a = t.lookup(va);
                        tlb::TlbLookupResult b = ref.lookup(va);
                        ASSERT_EQ(a.hit, b.hit) << "op " << op;
                        ASSERT_EQ(a.hitLevel, b.hitLevel);
                        ASSERT_EQ(a.latency, b.latency);
                        if (a.hit) {
                            ASSERT_EQ(a.entry.pfn, b.entry.pfn);
                            ASSERT_EQ(a.entry.writable, b.entry.writable);
                            ASSERT_EQ(a.entry.size, b.entry.size);
                        }
                    } else if (r < 70) {
                        // Region 2 holds 2 MB pages, regions 0-1 4 KB
                        // pages: one address never has translations of
                        // both sizes (see the file comment).
                        tlb::TlbEntry e;
                        e.size = va >= 2 * LargePageSize
                                     ? PageSizeKind::Large2M
                                     : PageSizeKind::Base4K;
                        e.pfn = rng.below(1000);
                        e.writable = rng.chance(0.5);
                        if (e.size == PageSizeKind::Base4K)
                            holes += ref.residentBehindHole(va);
                        t.insert(va, e);
                        ref.insert(va, e);
                    } else if (r < 90) {
                        t.invalidatePage(va);
                        ref.invalidatePage(va);
                    } else if (r < 96) {
                        asid = static_cast<Asid>(1 + rng.below(3));
                        t.setAsid(asid);
                        ref.setAsid(asid);
                    } else if (r < 99) {
                        Asid victim = static_cast<Asid>(1 + rng.below(3));
                        t.flushAsid(victim);
                        ref.flushAsid(victim);
                    } else {
                        t.flushAll();
                        ref.flushAll();
                    }
                    ASSERT_EQ(contentsOf(t), ref.contents()) << "op " << op;
                    expectSameStats(t.stats(), ref.stats);
                }
            }
        }
    }
    EXPECT_GT(holes, 0u);
}

// ---------------------------------------------------------------------
// PagingStructureCache
// ---------------------------------------------------------------------

TEST(ReplacementProperty, PwcMatchesStampScanModel)
{
    std::uint64_t holes = 0;
    for (unsigned pde : {4u, 32u}) {
        for (int seed = 1; seed <= Seeds; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "pdeEntries " << pde << " seed " << seed);
            tlb::PwcConfig cfg;
            cfg.pdeEntries = pde;
            tlb::PagingStructureCache p(cfg);
            RefPwc ref(cfg);
            Rng rng(static_cast<std::uint64_t>(seed) * 104729);
            const Pfn roots[] = {100, 200, 300};
            Asid asid = 1;
            for (int op = 0; op < OpsPerSeed; ++op) {
                // 2 x 2 x (pde * 2) prefixes: the pde level overflows.
                VirtAddr va = (rng.below(2) << 39) | (rng.below(2) << 30) |
                              (rng.below(2 * pde) << 21) |
                              rng.below(LargePageSize);
                Pfn cr3 = roots[rng.below(3)];
                std::uint64_t r = rng.below(100);
                if (r < 40) {
                    auto a = p.lookup(cr3, va);
                    auto b = ref.lookup(cr3, va);
                    ASSERT_EQ(a.startLevel, b.startLevel) << "op " << op;
                    ASSERT_EQ(a.tablePfn, b.tablePfn);
                } else if (r < 75) {
                    int level = static_cast<int>(1 + rng.below(3));
                    Pfn table = 1000 + rng.below(1000);
                    holes += ref.residentBehindHole(cr3, va, level);
                    p.fill(cr3, va, level, table);
                    ref.fill(cr3, va, level, table);
                } else if (r < 92) {
                    p.invalidate(va);
                    ref.invalidate(va);
                } else if (r < 96) {
                    asid = static_cast<Asid>(1 + rng.below(3));
                    p.setAsid(asid);
                    ref.setAsid(asid);
                } else if (r < 99) {
                    Asid victim = static_cast<Asid>(1 + rng.below(3));
                    p.flushAsid(victim);
                    ref.flushAsid(victim);
                } else {
                    p.flushAll();
                    ref.flushAll();
                }
                ASSERT_EQ(contentsOf(p), ref.contents()) << "op " << op;
                expectSameStats(p.stats(), ref.stats);
            }
        }
    }
    EXPECT_GT(holes, 0u);
}

} // namespace
} // namespace mitosim
