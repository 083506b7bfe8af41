/**
 * @file
 * Set-associative LRU cache model over physical cache-line addresses.
 *
 * Used for the per-socket shared L3 (35 MB on the paper's machine, scaled
 * in MitoSim's default config) and for the small per-core L1D that absorbs
 * spatial locality in streaming workloads. The model tracks presence only;
 * data values are never stored (data frames are unbacked).
 */

#ifndef MITOSIM_CACHE_SET_ASSOC_CACHE_H
#define MITOSIM_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <vector>

#include "src/base/logging.h"
#include "src/base/lru.h"
#include "src/base/types.h"

namespace mitosim::cache
{

/** Cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Presence-tracking set-associative cache with true-LRU replacement.
 * Addresses are physical; the tag granule is one 64-byte line.
 */
class SetAssocCache
{
  public:
    /**
     * @param capacity_bytes total capacity (power-of-two line count)
     * @param ways associativity
     */
    SetAssocCache(std::uint64_t capacity_bytes, unsigned ways);

    /**
     * Look up the line containing @p pa; on hit, refresh LRU.
     * @return true on hit.
     */
    bool
    lookup(PhysAddr pa)
    {
        std::uint64_t line = lineAddr(pa);
        std::size_t set = setOf(line);
        // Per-set MRU memo: the line most recently used in this set
        // (hit, fill or refresh; cleared by every invalidation path).
        // A repeat probe skips the set scan. Exact by MRU idempotence:
        // the memo line is already at the front of its set's recency
        // order — nothing in that set has been touched since, or the
        // memo would have been replaced — so the refresh a real probe
        // would perform changes nothing, and the hit counter is charged
        // identically. Per-set (rather than one global last-line) so
        // interleaved streams — a walker's PTE-line reads alternating
        // with data lines, or two data streams — keep their memos alive
        // independently.
        if (line == memoMru_[set]) {
            ++stats_.hits;
            return true;
        }
        std::size_t base = set * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == line) {
                lru.touch(set, w);
                ++stats_.hits;
                memoMru_[set] = line;
                return true;
            }
        }
        ++stats_.misses;
        return false;
    }

    /**
     * Insert the line containing @p pa (no-op if present; refreshes LRU).
     * The presence check covers only the ways in front of the first
     * free way, as the original in-order scan did: a line resident
     * behind an invalidation hole is installed a second time.
     * @return the evicted line address, or ~0ull if none.
     */
    std::uint64_t
    insert(PhysAddr pa)
    {
        std::uint64_t line = lineAddr(pa);
        std::size_t set = setOf(line);
        std::size_t base = set * numWays;
        memoMru_[set] = line; // touched below on every path
        unsigned victim = victimWay(set);
        unsigned end =
            tags[base + victim] == InvalidLine ? victim : numWays;
        for (unsigned w = 0; w < end; ++w) {
            if (tags[base + w] == line) { // already present
                lru.touch(set, w);
                return InvalidLine;
            }
        }
        return fill(set, victim, line);
    }

    /**
     * Fused lookup() + insert(): probe the set and, on a miss, install
     * the line. Replacement decision, recency order and statistics are
     * identical to lookup(pa) followed by insert(pa) — this exists
     * because the hierarchy's miss path always does exactly that pair.
     * A lookup miss means the line is nowhere in the set, so the fill
     * needs no second presence check.
     * @return true on hit.
     */
    bool
    probeInsert(PhysAddr pa)
    {
        std::uint64_t line = lineAddr(pa);
        std::size_t set = setOf(line);
        // Same MRU-memo short-circuit as lookup(), same exactness
        // argument — and a memo hit needs no fill, so the insert half
        // is moot.
        if (line == memoMru_[set]) {
            ++stats_.hits;
            return true;
        }
        memoMru_[set] = line; // every continuation below touches it
        std::size_t base = set * numWays;
        for (unsigned w = 0; w < numWays; ++w) {
            if (tags[base + w] == line) {
                lru.touch(set, w);
                ++stats_.hits;
                return true;
            }
        }
        ++stats_.misses;
        fill(set, victimWay(set), line);
        return false;
    }

    /** Drop the line containing @p pa if present. */
    void invalidateLine(PhysAddr pa);

    /** Drop every line whose frame is @p pfn (PT page teardown). */
    void invalidateFrame(Pfn pfn);

    /** Drop everything. */
    void flush();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /**
     * Charge @p n hits for fused same-line repeats (Core::accessRun)
     * without re-probing. Exact by MRU idempotence: the probe that
     * opened the run made the line its set's most recently used, so
     * refreshing it again cannot change any future hit, miss or
     * eviction.
     */
    void noteFusedHits(std::uint64_t n) { stats_.hits += n; }

    /**
     * Visit every valid line as (slot, line number), where slot is
     * set * associativity() + way and the line number is pa >> 6.
     * Diagnostic/validation hook; not part of the timed path.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != InvalidLine)
                fn(i, tags[i]);
        }
    }

    std::uint64_t capacityBytes() const { return tags.size() * LineSize; }
    unsigned associativity() const { return numWays; }
    std::uint64_t numSets() const { return sets; }

  private:
    /** Tag of a free way (no line address can equal it). */
    static constexpr std::uint64_t InvalidLine = ~0ull;

    std::uint64_t lineAddr(PhysAddr pa) const { return pa >> LineShift; }
    std::size_t setOf(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line & (sets - 1));
    }

    /** The way of @p set to fill next (see src/base/lru.h). */
    unsigned
    victimWay(std::size_t set) const
    {
        const std::uint64_t *t = &tags[set * numWays];
        return lru.victim(set,
                          [t](unsigned w) { return t[w] == InvalidLine; });
    }

    /**
     * Install @p line in @p way of @p set (its victimWay) and make it
     * the set's most recently used line.
     * @return the line it evicted, or InvalidLine for a free way.
     */
    std::uint64_t
    fill(std::size_t set, unsigned way, std::uint64_t line)
    {
        std::size_t slot = set * numWays + way;
        std::uint64_t evicted = tags[slot];
        if (evicted != InvalidLine)
            ++stats_.evictions;
        else
            lru.noteFilled(set);
        tags[slot] = line;
        lru.touch(set, way);
        return evicted;
    }

    /** Empty way @p w of @p set, which holds a line. */
    void
    clearWay(std::size_t set, unsigned w)
    {
        tags[set * numWays + w] = InvalidLine;
        lru.noteFreed(set);
    }

    unsigned numWays;
    std::uint64_t sets;
    // Set-major: a probe scans only the packed tag vector (an 8-way
    // set of tags is exactly one cache line); the replacement state is
    // a separate O(1) recency list per set.
    std::vector<std::uint64_t> tags; //!< full line address, ~0 = invalid
    LruSets lru;
    CacheStats stats_;
    /**
     * Per-set lookup memo (see lookup()/probeInsert()): the line most
     * recently used in each set. ~0 is "empty" — it doubles as the
     * invalid tag, so no real line can ever equal it.
     */
    std::vector<std::uint64_t> memoMru_;
};

} // namespace mitosim::cache

#endif // MITOSIM_CACHE_SET_ASSOC_CACHE_H
