/**
 * @file
 * True-LRU replacement state, shared by the cache, TLB and
 * paging-structure-cache models.
 *
 * The models' replacement rule is: the first (lowest-index) free way of
 * the set, else its least recently used way. LruSets keeps, per set, the
 * ways in recency order as a doubly linked list through a sentinel node,
 * plus a count of free ways, so that every operation is O(1) and free of
 * data-dependent branches:
 *
 *  - touch() (a hit or a fill) moves a way to the front;
 *  - victim() is the tail, unless the set has a free way, in which case
 *    the caller's emptiness test finds the first one (only sets that
 *    were never filled or lost a line to an invalidation pay that
 *    scan).
 *
 * This is the same order a recency stamp per way gives (stamp from a
 * clock on every hit and fill, evict the lowest): list order is
 * last-touch order, and a set without free ways has been filled in every
 * way since that way was last emptied, so its tail is the way with the
 * oldest last touch. Invalidation leaves the list alone; the emptied way
 * is found by the free-way scan until it is filled (and moved to the
 * front) again. There is no clock, so nothing wraps.
 */

#ifndef MITOSIM_BASE_LRU_H
#define MITOSIM_BASE_LRU_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mitosim
{

/** Recency order and free-way count of a number of equal-sized sets. */
class LruSets
{
  public:
    /** Largest supported associativity (16-bit links + a sentinel). */
    static constexpr unsigned MaxWays = 0xfffe;

    LruSets() = default;

    /** @p sets sets of @p ways ways, every way free. */
    LruSets(std::size_t sets, unsigned ways)
        : ways_(ways), stride_(ways + 1)
    {
        links_.resize(sets * stride_);
        for (std::size_t s = 0; s < sets; ++s) {
            Link *l = &links_[s * stride_];
            // sentinel <-> 0 <-> 1 <-> ... <-> ways-1 <-> sentinel
            for (unsigned w = 0; w <= ways; ++w) {
                l[w].prev = static_cast<Index>(w == 0 ? ways : w - 1);
                l[w].next = static_cast<Index>(w == ways ? 0 : w + 1);
            }
        }
        free_.assign(sets, static_cast<Index>(ways));
    }

    /** Make @p way the most recently used way of @p set. */
    void
    touch(std::size_t set, unsigned way)
    {
        Link *l = &links_[set * stride_];
        const Index a = l[way].prev;
        const Index b = l[way].next;
        l[a].next = b; // unlink (a no-op move when way is the head)
        l[b].prev = a;
        const Index head = l[ways_].next;
        l[ways_].next = static_cast<Index>(way);
        l[way].prev = static_cast<Index>(ways_);
        l[way].next = head;
        l[head].prev = static_cast<Index>(way);
    }

    /**
     * The way to fill next in @p set: the first way for which
     * @p is_free(way) holds if the set has a free way, else the least
     * recently used way.
     */
    template <typename IsFree>
    unsigned
    victim(std::size_t set, IsFree &&is_free) const
    {
        if (free_[set] != 0) [[unlikely]] {
            for (unsigned w = 0; w < ways_; ++w) {
                if (is_free(w))
                    return w;
            }
        }
        return links_[set * stride_ + ways_].prev;
    }

    /** A free way of @p set was filled. */
    void noteFilled(std::size_t set) { --free_[set]; }

    /** A filled way of @p set was emptied. */
    void noteFreed(std::size_t set) { ++free_[set]; }

    /** Every way of every set was emptied. */
    void
    noteAllFreed()
    {
        for (Index &f : free_)
            f = static_cast<Index>(ways_);
    }

  private:
    using Index = std::uint16_t;

    struct Link
    {
        Index prev;
        Index next;
    };

    unsigned ways_ = 0;
    std::size_t stride_ = 0;  //!< ways + 1 (the sentinel is index ways)
    std::vector<Link> links_; //!< set-major, stride_ links per set
    std::vector<Index> free_; //!< free ways per set
};

} // namespace mitosim

#endif // MITOSIM_BASE_LRU_H
