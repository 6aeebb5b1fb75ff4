/**
 * @file
 * On-chip TLB model (§4.2): a fixed-size content-addressable store of
 * recently used PTEs with LRU replacement. Lookup is a single fast-path
 * cycle; a miss costs exactly one DRAM bucket fetch from the hash page
 * table.
 */

#ifndef CLIO_PAGETABLE_TLB_HH
#define CLIO_PAGETABLE_TLB_HH

#include <cstdint>
#include <vector>

#include "pagetable/pte.hh"
#include "sim/lru_index.hh"
#include "sim/types.hh"

namespace clio {

/** Fixed-capacity fully-associative LRU TLB. */
class Tlb
{
  public:
    explicit Tlb(std::uint32_t capacity);

    /**
     * Look up (pid, vpn); promotes the entry to MRU on hit.
     * @return cached copy of the PTE, or nullptr on miss. The pointer
     *         stays valid until the next mutating call.
     */
    const Pte *lookup(ProcId pid, std::uint64_t vpn);

    /** Insert (or overwrite) an entry, evicting LRU when full. */
    void insert(const Pte &pte);

    /** Drop one entry if cached (rfree / remap). */
    void invalidate(ProcId pid, std::uint64_t vpn);

    /** Drop every entry of one process (address space teardown). */
    void invalidateProcess(ProcId pid);

    std::uint32_t capacity() const { return lru_.capacity(); }
    std::uint32_t size() const { return lru_.size(); }

    /** @{ Hit/miss counters for stats and benches. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** @} */

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    struct Key
    {
        ProcId pid;
        std::uint64_t vpn;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::uint64_t
        operator()(const Key &k) const
        {
            // The pid lands above the vpn bits a mapping uses; the
            // multiply spreads both into the top bits FlatIndex reads.
            return (k.vpn ^ (std::uint64_t{k.pid} << 40)) *
                   0x9E3779B97F4A7C15ull;
        }
    };

    LruIndex<Key, KeyHash> lru_;
    /** Cached PTE of each LRU slot. */
    std::vector<Pte> ptes_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace clio

#endif // CLIO_PAGETABLE_TLB_HH
