/**
 * @file
 * Flat open-addressed index from a key to a 32-bit slot.
 *
 * The per-request tables of the simulator (a CN's outstanding requests,
 * an MN's inflight reassembly, dedup ring and TLB) keep their bodies in
 * preallocated slot arrays; FlatIndex is the key -> slot lookup beside
 * them. Linear probing over a power-of-two table kept at most half
 * full, backward-shift deletion (no tombstones, so probe chains never
 * degrade), and one contiguous cell array: no per-entry allocation, and
 * an erase-insert cycle at steady size never allocates. There is no
 * iteration API on purpose — hash order must never decide simulated
 * behaviour, so owners walk their slot arrays instead.
 */

#ifndef CLIO_SIM_FLAT_INDEX_HH
#define CLIO_SIM_FLAT_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clio {

/** Default FlatIndex hash for integer keys: Fibonacci multiply. The
 * index takes the product's top bits, which mix every key bit. */
template <typename K>
struct FlatHash
{
    std::uint64_t
    operator()(K key) const
    {
        return static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    }
};

/** Open-addressed key -> slot map (see file comment). */
template <typename K, typename Hash = FlatHash<K>>
class FlatIndex
{
  public:
    /** find() result for an absent key; never a valid slot. */
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    /** @param expected entries the table holds without rehashing. */
    explicit FlatIndex(std::size_t expected = 8) { rebuild(expected); }

    /** Slot stored under `key`, or kNone. */
    std::uint32_t
    find(const K &key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Cell &c = cells_[i];
            if (c.slot == kNone || c.key == key)
                return c.slot;
        }
    }

    /** Map `key` to `slot` (< kNone). @return false, leaving the table
     * unchanged, when `key` is already present. */
    bool
    insert(const K &key, std::uint32_t slot)
    {
        if (2 * (size_ + 1) > cells_.size())
            rebuild(size_ + 1);
        std::size_t i = home(key);
        for (; cells_[i].slot != kNone; i = (i + 1) & mask_) {
            if (cells_[i].key == key)
                return false;
        }
        cells_[i] = Cell{key, slot};
        size_++;
        return true;
    }

    /** Remove `key`. @return whether it was present. */
    bool
    erase(const K &key)
    {
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask_) {
            if (cells_[hole].slot == kNone)
                return false;
            if (cells_[hole].key == key)
                break;
        }
        // Backward shift: pull each later member of the cluster into
        // the hole unless that would move it before its home cell.
        for (std::size_t j = (hole + 1) & mask_; cells_[j].slot != kNone;
             j = (j + 1) & mask_) {
            const std::size_t h = home(cells_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                cells_[hole] = cells_[j];
                hole = j;
            }
        }
        cells_[hole].slot = kNone;
        size_--;
        return true;
    }

    /** Drop every entry; the table keeps its size. */
    void
    clear()
    {
        for (Cell &c : cells_)
            c.slot = kNone;
        size_ = 0;
    }

    std::size_t size() const { return size_; }

  private:
    struct Cell
    {
        K key{};
        std::uint32_t slot = kNone;
    };

    std::size_t
    home(const K &key) const
    {
        return static_cast<std::size_t>(Hash{}(key) >> shift_);
    }

    /** Resize to the smallest power of two >= 2 * `expected` (>= 16)
     * cells and reinsert every entry in cell order. */
    void
    rebuild(std::size_t expected)
    {
        std::size_t cap = 16;
        unsigned bits = 4;
        while (cap < 2 * expected) {
            cap *= 2;
            bits++;
        }
        std::vector<Cell> old(cap);
        old.swap(cells_);
        mask_ = cap - 1;
        shift_ = 64 - bits;
        for (const Cell &c : old) {
            if (c.slot == kNone)
                continue;
            std::size_t i = home(c.key);
            while (cells_[i].slot != kNone)
                i = (i + 1) & mask_;
            cells_[i] = c;
        }
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace clio

#endif // CLIO_SIM_FLAT_INDEX_HH
