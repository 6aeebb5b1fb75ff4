/**
 * @file
 * Overflow-free hash page table (§4.2, the paper's key data structure).
 *
 * All PTEs from all processes live in a single hash table whose size is
 * proportional to the MN's physical memory (overprovisioned 2x by
 * default). Each bucket holds K slots and is fetched with exactly one
 * DRAM access, which bounds every translation to at most one DRAM
 * access on a TLB miss.
 *
 * Buckets never overflow at run time: the slow-path VA allocator only
 * hands out VA ranges whose pages all fit their buckets (checked at
 * allocation time, retried otherwise — see valloc/). insert() therefore
 * panics on a full bucket: that would mean the allocator invariant was
 * broken, which is a simulator bug, not an expected condition.
 */

#ifndef CLIO_PAGETABLE_HASH_PAGE_TABLE_HH
#define CLIO_PAGETABLE_HASH_PAGE_TABLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "pagetable/pte.hh"
#include "sim/types.hh"

namespace clio {

/**
 * Jenkins one-at-a-time hash over (pid, vpn), the low-collision hash
 * family the paper cites for its page table.
 */
std::uint64_t jenkinsHash(ProcId pid, std::uint64_t vpn);

/** The single flat hash page table of one MN. */
class HashPageTable
{
  public:
    /**
     * @param phys_bytes   physical memory the MN hosts.
     * @param page_size    configured huge-page size.
     * @param bucket_slots K, slots fetched per DRAM access.
     * @param overprovision total-slot factor over physical pages (2x
     *                      default absorbs most hash skew, §4.2).
     */
    HashPageTable(std::uint64_t phys_bytes, std::uint64_t page_size,
                  std::uint32_t bucket_slots, double overprovision);

    /** Bucket index a (pid, vpn) pair hashes to. */
    std::uint64_t bucketOf(ProcId pid, std::uint64_t vpn) const;

    /**
     * Look up the PTE for (pid, vpn). Models one DRAM bucket fetch.
     * @return pointer into the table, or nullptr when absent.
     */
    Pte *lookup(ProcId pid, std::uint64_t vpn);
    const Pte *lookup(ProcId pid, std::uint64_t vpn) const;

    /**
     * Count free slots remaining in the bucket of (pid, vpn); used by
     * the VA allocator's overflow check.
     */
    std::uint32_t freeSlotsInBucket(ProcId pid, std::uint64_t vpn) const;

    /**
     * Test whether a whole batch of (pid, vpn) pages can be inserted
     * without overflowing any bucket, accounting for multiple pages of
     * the batch landing in the same bucket. Pure check, no mutation.
     */
    bool canInsert(ProcId pid, std::span<const std::uint64_t> vpns) const;

    /**
     * Insert an invalid-but-allocated PTE for (pid, vpn) with the given
     * permissions. Panics if the bucket is full (allocator invariant
     * violated) or the entry already exists.
     */
    void insert(ProcId pid, std::uint64_t vpn, std::uint8_t perm);

    /** Remove the PTE for (pid, vpn); returns the removed entry. */
    Pte remove(ProcId pid, std::uint64_t vpn);

    /** Bind a physical frame, marking the PTE present (page fault). */
    void bindFrame(ProcId pid, std::uint64_t vpn, PhysAddr frame);

    /**
     * Remove every PTE of one process (address-space teardown),
     * invoking `reclaim` with each removed entry so the caller can
     * free bound frames. Linear sweep; not performance critical.
     */
    template <typename Fn>
    void
    removeAllOfPid(ProcId pid, Fn &&reclaim)
    {
        for (auto &pte : slots_) {
            if (pte.valid && pte.pid == pid) {
                reclaim(const_cast<const Pte &>(pte));
                pte = Pte{};
                live_entries_--;
            }
        }
    }

    std::uint32_t bucketSlots() const { return bucket_slots_; }
    std::uint64_t totalSlots() const {
        return bucket_count_ * bucket_slots_;
    }
    std::uint64_t liveEntries() const { return live_entries_; }

    /** Total table size in bytes (each slot is 16 B packed, §4.2's
     * "0.4% of physical memory" figure). */
    std::uint64_t tableBytes() const { return totalSlots() * 16; }

    /** Highest bucket fill level observed (test/diagnostic hook). */
    std::uint32_t maxBucketFill() const;

  private:
    std::uint64_t bucket_count_;
    std::uint32_t bucket_slots_;
    std::vector<Pte> slots_;
    std::uint64_t live_entries_ = 0;
};

} // namespace clio

#endif // CLIO_PAGETABLE_HASH_PAGE_TABLE_HH
