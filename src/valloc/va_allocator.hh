/**
 * @file
 * Slow-path virtual address allocator (§4.2).
 *
 * Maintains one Linux-vma-style interval tree per process recording
 * allocated VA ranges and permissions. Allocation is first-fit with a
 * roving cursor, but a candidate range is only accepted when inserting
 * all of its pages into the hash page table would overflow no bucket —
 * otherwise the allocator *retries* with the next candidate range. This
 * trades allocation-time retries (Fig. 13) for a run-time guarantee
 * that translation never exceeds one DRAM access.
 */

#ifndef CLIO_VALLOC_VA_ALLOCATOR_HH
#define CLIO_VALLOC_VA_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pagetable/hash_page_table.hh"
#include "sim/types.hh"

namespace clio {

/** Result of a successful VA allocation. */
struct VaAllocResult
{
    /** Start of the allocated range. */
    VirtAddr addr = 0;
    /** Page numbers of the range (for the caller to insert PTEs). */
    std::vector<std::uint64_t> vpns;
    /** Candidate ranges rejected by the hash-overflow check before one
     * was accepted (the Fig. 13 metric). */
    std::uint32_t retries = 0;
};

/** Interval + permissions of one live allocation (a "vma"). */
struct VaRegion
{
    VirtAddr start = 0;
    std::uint64_t length = 0; // bytes, page-aligned
    std::uint8_t perm = kPermNone;
};

/** Per-MN, all-processes VA allocator run by the slow path. */
class VaAllocator
{
  public:
    /**
     * @param page_size     huge-page size in bytes.
     * @param va_space_size per-process RAS size in bytes.
     */
    VaAllocator(std::uint64_t page_size, std::uint64_t va_space_size);

    /**
     * Allocate `size` bytes (rounded up to pages) for `pid`, such that
     * every page of the chosen range fits the hash page table.
     *
     * The overflow check runs against `pt` but this method does NOT
     * insert the PTEs; the caller (slow path) does so after charging
     * the modeled latency, using the returned vpn list.
     *
     * @return nullopt when no VA range fits within `max_retries`
     *         additional candidates (VA space or table truly full).
     */
    std::optional<VaAllocResult>
    allocate(ProcId pid, std::uint64_t size, std::uint8_t perm,
             const HashPageTable &pt, std::uint32_t max_retries = 1000);

    /**
     * Free the allocation starting exactly at `addr`.
     * @return the region's page numbers, or nullopt if no allocation
     *         starts at `addr` (caller reports an error to the app).
     */
    std::optional<VaAllocResult> free(ProcId pid, VirtAddr addr);

    /** Region containing `addr`, or nullptr. */
    const VaRegion *regionOf(ProcId pid, VirtAddr addr) const;

    /**
     * Restrict a process' allocations on this MN to controller-assigned
     * windows (§4.7: the global controller hands out coarse VA regions;
     * the MN then manages them at page granularity). A process with no
     * windows may use the entire VA space (single-MN mode). Windows
     * must be page-aligned and non-overlapping.
     */
    void addWindow(ProcId pid, VirtAddr start, std::uint64_t length);

    /** Total window bytes assigned to a process (0 = unrestricted). */
    std::uint64_t windowBytes(ProcId pid) const;

    /** Remove a window previously added (migration hand-off, §4.7).
     * Live regions inside it must have been extracted first. */
    void removeWindow(ProcId pid, VirtAddr start, std::uint64_t length);

    /**
     * Remove and return every live region inside [start, start+length)
     * (region migration support). Regions must not straddle the range
     * boundary (the controller migrates whole coarse regions).
     */
    std::vector<VaRegion> extractRegions(ProcId pid, VirtAddr start,
                                         std::uint64_t length);

    /** Re-insert a region extracted from another MN's allocator. The
     * range must be free (and inside a window when windows exist). */
    void injectRegion(ProcId pid, const VaRegion &region);

    /** Total bytes currently allocated for one process. */
    std::uint64_t allocatedBytes(ProcId pid) const;

    /** Drop all state of a process (teardown). */
    void removeProcess(ProcId pid);

  private:
    struct ProcState
    {
        /** start -> region; ordered for gap search. */
        std::map<VirtAddr, VaRegion> regions;
        /** Roving first-fit cursor (next candidate start). */
        VirtAddr cursor;
        /** Controller-assigned windows (start -> end); empty means the
         * whole VA space is allowed. */
        std::map<VirtAddr, VirtAddr> windows;
    };

    /** Clamp a candidate position into the allowed windows; returns
     * nullopt when `pos` is beyond the last window. */
    std::optional<VirtAddr> clampToWindows(const ProcState &st,
                                           VirtAddr pos,
                                           std::uint64_t length) const;

    /** First gap of >= length bytes at or after `from`, wrapping once.
     * @return start address or nullopt when VA space is exhausted. */
    std::optional<VirtAddr> findGap(const ProcState &st, VirtAddr from,
                                    std::uint64_t length) const;

    /** True iff [start, start+length) overlaps no existing region. */
    bool rangeFree(const ProcState &st, VirtAddr start,
                   std::uint64_t length) const;

    std::vector<std::uint64_t> vpnsOf(VirtAddr start,
                                      std::uint64_t length) const;

    std::uint64_t page_size_;
    std::uint64_t va_space_size_;
    std::unordered_map<ProcId, ProcState> procs_;
};

} // namespace clio

#endif // CLIO_VALLOC_VA_ALLOCATOR_HH
