/**
 * @file
 * Byte-addressable physical memory for one memory node.
 *
 * Each PhysicalMemory is one anonymous MAP_NORESERVE reservation of its
 * full capacity, and a physical address is an offset into it. The
 * kernel backs the reservation in 4 KiB pages on first touch, so a
 * simulated MN can be configured with, say, 2 GB or 4 TB of physical
 * memory without the host paying for untouched bytes, and untouched
 * memory reads as zero with no lookup. The reservation opts out of
 * transparent huge pages (MADV_NOHUGEPAGE), so residency follows 4 KiB
 * pages even on a host whose THP setting is `always`.
 *
 * A bitmap behind the data marks every 4 KiB page that was written.
 * When a memory is destroyed it zeroes only those pages and returns its
 * reservation to a small process-wide pool; the next memory of the
 * same capacity is built from the pool, so a rebuilt cluster (a new
 * benchmark round, a restarted CBoard) finds its pages already
 * resident. The pool is touched only at construction and destruction
 * and is not thread-safe.
 *
 * All reads and writes move real data: end-to-end tests verify that
 * what a client reads through the whole network/translation stack is
 * exactly what was written, even under loss/reordering/retry.
 */

#ifndef CLIO_MEM_PHYSICAL_MEMORY_HH
#define CLIO_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Lazily backed store for one MN's on-board DRAM. */
class PhysicalMemory
{
  public:
    /**
     * @param capacity total physical bytes this MN hosts. Dies with a
     * message naming it when the host cannot reserve that much
     * address space.
     */
    explicit PhysicalMemory(std::uint64_t capacity);
    /** Zeroes the written pages and pools (or unmaps) the reservation. */
    ~PhysicalMemory();

    PhysicalMemory(PhysicalMemory &&other) noexcept;
    PhysicalMemory &operator=(PhysicalMemory &&other) noexcept;
    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Copy `len` bytes from physical address `addr` into `dst`.
     * Untouched memory reads as zero. Panics on out-of-range access
     * (the translation layer must never produce one).
     */
    void read(PhysAddr addr, void *dst, std::uint64_t len) const;

    /** Copy `len` bytes from `src` into physical address `addr`. */
    void write(PhysAddr addr, const void *src, std::uint64_t len);

    /** Read a little-endian 64-bit word (for atomics). */
    std::uint64_t read64(PhysAddr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(PhysAddr addr, std::uint64_t value);

    /**
     * Zero-fill a range (the MN zeroes every frame it frees, so a frame
     * never carries one process's bytes to the next). Touches only the
     * range's written pages.
     */
    void zero(PhysAddr addr, std::uint64_t len);

    /** Number of 64 KiB chunks that hold a written byte (test hook). */
    std::size_t materializedChunks() const
    {
        return written_chunks_.size();
    }

  private:
    void checkRange(PhysAddr addr, std::uint64_t len,
                    const char *what) const;
    /** Zero the written pages, then pool or unmap the reservation. */
    void release();

    std::uint64_t capacity_;
    /** The reservation: the data (`capacity_` rounded up to 64 KiB),
     * then the page bitmap. Null once moved from. */
    std::uint8_t *base_;
    /** The page bitmap: one 16-bit field per 64 KiB chunk, one bit per
     * 4 KiB page. */
    std::uint16_t *written_;
    /** Chunks whose bitmap field is nonzero, in first-write order, so
     * release() visits only what was written. */
    std::vector<std::uint64_t> written_chunks_;
};

} // namespace clio

#endif // CLIO_MEM_PHYSICAL_MEMORY_HH
