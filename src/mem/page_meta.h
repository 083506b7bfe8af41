/**
 * @file
 * Per-frame metadata, MitoSim's equivalent of Linux's struct page.
 *
 * The paper stores the replica circular-list pointer in struct page (§5.2,
 * Figure 8) so that a PTE write can find all replicas of a page-table page
 * in O(replicas) without walking any page-table. We do the same: every
 * physical frame has a PageMeta; page-table frames additionally reference
 * their 512-entry table storage (a slot in the owning socket's arena, see
 * PhysicalMemory) and participate in a circular replica list.
 */

#ifndef MITOSIM_MEM_PAGE_META_H
#define MITOSIM_MEM_PAGE_META_H

#include <cstdint>
#include <type_traits>

#include "src/base/types.h"

namespace mitosim::mem
{

/** What a physical frame currently holds. */
enum class FrameType : std::uint8_t
{
    Free,      //!< on a free list
    Data,      //!< application data (unbacked in the host)
    PageTable, //!< one page of a process page-table (host-backed)
    Reserved,  //!< kernel junk, e.g. fragmentation filler
};

/** Flags on a frame. */
enum FrameFlags : std::uint16_t
{
    FrameFlagNone = 0,
    FrameFlagLargeHead = 1 << 0, //!< first frame of a 2 MB data page
    FrameFlagLargeTail = 1 << 1, //!< interior frame of a 2 MB data page
    FrameFlagPtReserve = 1 << 2, //!< lives in a per-socket PT page cache
    FrameFlagFragPin = 1 << 3,   //!< fragmentation-injector filler
                                 //!< (movable by kcompactd)
};

/** "No table storage" sentinel for PageMeta::tableSlot. */
inline constexpr std::uint32_t NoTableSlot = 0xffffffffu;

/**
 * Metadata for one 4 KB physical frame.
 *
 * Trivially copyable by design: metadata chunks are detached (CoW) and
 * recycled wholesale, and the 512 x u64 table storage of PageTable
 * frames lives in the per-socket slot arenas of PhysicalMemory, not
 * inline here.
 *
 * @invariant type == PageTable  <=>  tableSlot != NoTableSlot
 * @invariant For PageTable frames, replicaNext forms a circular list over
 *            all replicas of the same logical page-table page; an
 *            unreplicated page links to itself.
 * @invariant A small (4 KB) data frame mapped by a present leaf carries
 *            that mapping's owner and virtual page (vpn), the reverse
 *            map kcompactd reads instead of walking the page tables.
 */
struct PageMeta
{
    /** Next frame in the circular replica list (self if unreplicated). */
    Pfn replicaNext = InvalidPfn;

    /** Owning process, or -1 for kernel/none. */
    ProcId owner = -1;

    /**
     * PT frames: slot of their 512 x u64 storage in the owning
     * socket's table arena; NoTableSlot otherwise.
     */
    std::uint32_t tableSlot = NoTableSlot;

    FrameType type = FrameType::Free;

    /** Page-table level 1..4 for PageTable frames, 0 otherwise. */
    std::uint8_t level = 0;

    /** FrameFlags; 12 bits, so assigning them never touches vpnHigh. */
    std::uint16_t flags : 12 = FrameFlagNone;

    /**
     * Small data frames: the virtual page (va >> PageShift) the frame
     * is mapped at in its owner, 36 bits wide (vpnHigh:vpnLow), which
     * covers a 48-bit virtual address space. Set when the frame gets
     * its mapping (PhysicalMemory::allocData, splitLargeData) and
     * carried along by migrateData and compactData; 0 otherwise. Read
     * and write it through va() / setVa().
     */
    std::uint16_t vpnHigh : 4 = 0;
    std::uint32_t vpnLow = 0;

    bool isPageTable() const { return type == FrameType::PageTable; }
    bool isFree() const { return type == FrameType::Free; }
    bool hasFlag(FrameFlags f) const { return (flags & f) != 0; }
    bool hasTable() const { return tableSlot != NoTableSlot; }

    /** Highest virtual address the vpn fields can record, plus one. */
    static constexpr VirtAddr VaLimit = 1ull << (PageShift + 36);

    /** Virtual address of the recorded mapping (page aligned). */
    VirtAddr
    va() const
    {
        return ((static_cast<VirtAddr>(vpnHigh) << 32) | vpnLow)
               << PageShift;
    }

    /** Record the mapping's virtual address @p va (< VaLimit). */
    void
    setVa(VirtAddr va)
    {
        const std::uint64_t vpn = va >> PageShift;
        vpnLow = static_cast<std::uint32_t>(vpn);
        vpnHigh = static_cast<std::uint16_t>((vpn >> 32) & 0xf);
    }
};

static_assert(sizeof(PageMeta) == 24,
              "the vpn fields must fit in PageMeta's former padding");

static_assert(std::is_trivially_copyable_v<PageMeta>,
              "metadata chunks are copied and scrubbed wholesale");

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PAGE_META_H
