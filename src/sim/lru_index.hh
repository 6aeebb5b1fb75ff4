/**
 * @file
 * Fixed-capacity LRU set of keys over flat arrays.
 *
 * The model of every on-chip cache with LRU replacement (the MN's TLB
 * CAM, the RDMA baseline's NIC QP/MPT/MTT caches). Each cached key owns
 * one of `capacity` slots, which the owner uses to index its own
 * payload array. Recency is a doubly linked list threaded through the
 * slot array by 32-bit indices (free slots chain through the same
 * links), and the key -> slot lookup is a FlatIndex, so nothing is
 * allocated after construction.
 */

#ifndef CLIO_SIM_LRU_INDEX_HH
#define CLIO_SIM_LRU_INDEX_HH

#include <cstdint>
#include <vector>

#include "sim/flat_index.hh"

namespace clio {

/** Fixed-capacity LRU key set handing out slots (see file comment). */
template <typename K, typename Hash = FlatHash<K>>
class LruIndex
{
  public:
    static constexpr std::uint32_t kNone = FlatIndex<K, Hash>::kNone;

    explicit LruIndex(std::uint32_t capacity)
        : nodes_(capacity), index_(capacity), capacity_(capacity)
    {
        for (std::uint32_t s = 0; s < capacity; s++)
            nodes_[s].next = s + 1 < capacity ? s + 1 : kNone;
        free_ = capacity > 0 ? 0 : kNone;
    }

    /** Slot of `key` without touching recency; kNone on miss. */
    std::uint32_t find(const K &key) const { return index_.find(key); }

    /** Slot of `key`, promoted to most recently used; kNone on miss. */
    std::uint32_t
    touch(const K &key)
    {
        const std::uint32_t slot = index_.find(key);
        if (slot != kNone && slot != head_) {
            unlink(slot);
            pushFront(slot);
        }
        return slot;
    }

    /** Insert an absent `key` as most recently used, evicting the least
     * recently used key when full. Capacity must be nonzero.
     * @return the key's slot. */
    std::uint32_t
    insert(const K &key)
    {
        if (size_ == capacity_)
            release(tail_);
        const std::uint32_t slot = free_;
        free_ = nodes_[slot].next;
        nodes_[slot].key = key;
        index_.insert(key, slot);
        pushFront(slot);
        size_++;
        return slot;
    }

    /** Drop `key` if cached. */
    void
    erase(const K &key)
    {
        const std::uint32_t slot = index_.find(key);
        if (slot != kNone)
            release(slot);
    }

    /** Drop every key for which `pred(key)` holds. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        for (std::uint32_t s = head_; s != kNone;) {
            const std::uint32_t next = nodes_[s].next;
            if (pred(nodes_[s].key))
                release(s);
            s = next;
        }
    }

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const { return size_; }

  private:
    struct Node
    {
        K key{};
        /** Toward the MRU end; unused on a free slot. */
        std::uint32_t prev = kNone;
        /** Toward the LRU end, or the next free slot. */
        std::uint32_t next = kNone;
    };

    void
    unlink(std::uint32_t slot)
    {
        Node &n = nodes_[slot];
        (n.prev == kNone ? head_ : nodes_[n.prev].next) = n.next;
        (n.next == kNone ? tail_ : nodes_[n.next].prev) = n.prev;
    }

    void
    pushFront(std::uint32_t slot)
    {
        Node &n = nodes_[slot];
        n.prev = kNone;
        n.next = head_;
        (head_ == kNone ? tail_ : nodes_[head_].prev) = slot;
        head_ = slot;
    }

    /** Unlink a cached slot and return it to the free chain. */
    void
    release(std::uint32_t slot)
    {
        unlink(slot);
        index_.erase(nodes_[slot].key);
        nodes_[slot].next = free_;
        free_ = slot;
        size_--;
    }

    std::vector<Node> nodes_;
    FlatIndex<K, Hash> index_;
    std::uint32_t capacity_;
    std::uint32_t size_ = 0;
    std::uint32_t head_ = kNone; ///< most recently used
    std::uint32_t tail_ = kNone; ///< least recently used
    std::uint32_t free_ = kNone; ///< first free slot
};

} // namespace clio

#endif // CLIO_SIM_LRU_INDEX_HH
