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

    std::uint16_t flags = FrameFlagNone;

    /**
     * Small data frames: the virtual page (va >> PageShift) the frame
     * is mapped at in its owner, truncated to 32 bits (16 TiB of
     * address space). Set when the frame gets its mapping
     * (PhysicalMemory::allocData, splitLargeData) and carried along by
     * migrateData and compactData; 0 otherwise. It fills what was
     * padding, so PageMeta stays 24 bytes.
     */
    std::uint32_t vpn = 0;

    bool isPageTable() const { return type == FrameType::PageTable; }
    bool isFree() const { return type == FrameType::Free; }
    bool hasFlag(FrameFlags f) const { return (flags & f) != 0; }
    bool hasTable() const { return tableSlot != NoTableSlot; }

    /** The 32-bit vpn field's encoding of @p va. */
    static constexpr std::uint32_t
    packVpn(VirtAddr va)
    {
        return static_cast<std::uint32_t>(va >> PageShift);
    }

    /** Virtual address of the recorded mapping (see vpn). */
    VirtAddr va() const { return static_cast<VirtAddr>(vpn) << PageShift; }
};

static_assert(sizeof(PageMeta) == 24,
              "the vpn field must fit in PageMeta's former padding");

static_assert(std::is_trivially_copyable_v<PageMeta>,
              "metadata chunks are copied and scrubbed wholesale");

} // namespace mitosim::mem

#endif // MITOSIM_MEM_PAGE_META_H
