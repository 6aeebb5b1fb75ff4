/**
 * @file
 * Clio-KV (§6): a key-value store running at the MN as a computation
 * offload, with atomic-write / read-committed consistency.
 *
 * Data layout inside the offload's remote address space:
 *  - a bucket array (one 8-byte head pointer per bucket);
 *  - chains of slots, each holding a next pointer and 7 entries of
 *    {64-bit key fingerprint, VA of the key-value block};
 *  - key-value blocks {klen, vlen, key bytes, value bytes} carved out
 *    of slab pages (4 MB huge pages sub-allocated by the offload, so
 *    rallocs are rare and amortized). A block takes at least one
 *    8 + kMaxKeyBytes burst, rounded up to 8 bytes.
 *
 * A put writes its block out of place and then flips the entry
 * pointer; a delete clears the entry. Either way the block no entry
 * points at any more goes onto a LIFO free stack for its rounded size,
 * and the slab allocator takes a block of the same size from there
 * before it carves the slab. The stacks are offload-local control
 * state like the slab cursor: they cost no modeled DRAM access, and
 * the block's size comes from the {klen, vlen} header the key compare
 * already read. On-chip state is finite, so the stacks hold at most
 * kMaxFreeBlocks addresses in total; a free that finds them full
 * leaves the block unreclaimed and counts it. A linked slot is never
 * freed. A put checks every write it makes; one that faults (say, on a
 * slab page the MN could not back) fails the put with kBadAddress and
 * hands back the block and any slot the put has not linked.
 *
 * A CN-side partitioner (ClioKvClient) spreads keys across MNs; all
 * requests for one partition go to the same MN, whose ordered
 * execution of Clio ops delivers the consistency level (§6).
 */

#ifndef CLIO_APPS_KV_STORE_HH
#define CLIO_APPS_KV_STORE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "offload/descriptor.hh"
#include "offload/offload.hh"
#include "clib/client.hh"

namespace clio {

/** KV request opcodes carried in the offload argument. */
enum class KvOp : std::uint8_t { kGet = 0, kPut = 1, kDelete = 2 };

/** Serialize a KV request into offload argument bytes. */
std::vector<std::uint8_t> kvEncode(KvOp op, const std::string &key,
                                   const std::string &value = {});

/** The MN-side offload module. */
class ClioKvOffload : public Offload
{
  public:
    /** @param bucket_count hash buckets (power of two recommended). */
    explicit ClioKvOffload(std::uint32_t bucket_count = 4096);

    /** Deployment descriptor (hash + chain walker + slab allocator). */
    static OffloadDescriptor descriptor(std::uint32_t id);

    void init(OffloadVm &vm) override;
    OffloadResult invoke(OffloadVm &vm,
                         const std::vector<std::uint8_t> &arg) override;

    /** @{ Stats for tests/benches. */
    std::uint64_t gets() const { return gets_; }
    std::uint64_t puts() const { return puts_; }
    std::uint64_t deletes() const { return deletes_; }
    std::uint64_t slabsAllocated() const { return slabs_; }
    /** Blocks waiting on the free stacks for reuse. */
    std::uint64_t freeBlocks() const { return free_count_; }
    /** Frees that found the stacks full: those blocks are lost. */
    std::uint64_t unreclaimedBlocks() const { return unreclaimed_; }
    /** @} */

    static std::uint64_t hashKey(const std::string &key);

    /** Maximum key length: lets the FPGA fetch header + key in one
     * speculative DRAM burst. */
    static constexpr std::uint64_t kMaxKeyBytes = 64;

    /** Free-stack capacity, in block addresses across all sizes
     * (8 KiB of on-chip state). */
    static constexpr std::uint64_t kMaxFreeBlocks = 1024;

  private:
    static constexpr std::uint32_t kEntriesPerSlot = 7;
    static constexpr std::uint64_t kSlotBytes =
        8 + kEntriesPerSlot * 16; // next + {fp, addr} entries
    static constexpr std::uint64_t kSlabBytes = 4 * MiB;

    struct Entry
    {
        std::uint64_t fp = 0;
        std::uint64_t addr = 0;
    };

    struct Slot
    {
        std::uint64_t next = 0;
        Entry entries[kEntriesPerSlot];
    };

    /** Bytes a block of `n` bytes takes: at least one header+key
     * burst, so the speculative fetch never crosses its end, rounded
     * up to 8 bytes. */
    static std::uint64_t blockBytes(std::uint64_t n);

    /** Allocate `n` bytes: a freed block of the same rounded size,
     * else from the current slab (new slab as needed).
     * @return 0 on allocation failure. */
    std::uint64_t slabAlloc(OffloadVm &vm, std::uint64_t n);

    /** Return the `n`-byte block at `addr`, which no entry points at,
     * to its free stack (or count it unreclaimed if the stacks are
     * full). */
    void freeBlock(std::uint64_t addr, std::uint64_t n);

    /** Read the block header at `addr`, then its key, and compare it
     * with `key`. @return the block's size in bytes on a match, else
     * 0. */
    std::uint64_t matchBlock(OffloadVm &vm, std::uint64_t addr,
                             const std::string &key);

    bool readSlot(OffloadVm &vm, std::uint64_t addr, Slot &slot);
    bool writeSlot(OffloadVm &vm, std::uint64_t addr, const Slot &slot);

    OffloadResult get(OffloadVm &vm, const std::string &key);
    OffloadResult put(OffloadVm &vm, const std::string &key,
                      const std::string &value);
    OffloadResult del(OffloadVm &vm, const std::string &key);

    std::uint32_t bucket_count_;
    VirtAddr bucket_array_ = 0;

    /** Slab cursor (offload-local registers, not remote memory). */
    VirtAddr slab_base_ = 0;
    std::uint64_t slab_used_ = 0;

    /** Free blocks by rounded size, each stack LIFO (offload-local,
     * like the slab cursor). */
    std::map<std::uint64_t, std::vector<std::uint64_t>> free_blocks_;
    std::uint64_t free_count_ = 0;
    std::uint64_t unreclaimed_ = 0;

    std::uint64_t gets_ = 0;
    std::uint64_t puts_ = 0;
    std::uint64_t deletes_ = 0;
    std::uint64_t slabs_ = 0;
};

/**
 * CN-side Clio-KV client: partitions keys across MNs (the paper's
 * CN-side load balancer) and invokes the per-MN offload.
 */
class ClioKvClient
{
  public:
    /** @param offload_id id under which ClioKvOffload was registered
     *  on every MN in `mns`. */
    ClioKvClient(ClioClient &client, std::vector<NodeId> mns,
                 std::uint32_t offload_id);

    bool put(const std::string &key, const std::string &value);
    std::optional<std::string> get(const std::string &key);
    bool del(const std::string &key);

    /** Batched multi-get: keys are grouped per owning MN and each
     * group ships as chained kGet stages (independent, no binds), so a
     * batch costs one round trip per MN per max_chain_depth keys
     * instead of one per key. Results align with `keys`. */
    std::vector<std::optional<std::string>>
    mget(const std::vector<std::string> &keys);

    /** MN serving a key (test hook). */
    NodeId mnForKey(const std::string &key) const;

  private:
    ClioClient &client_;
    std::vector<NodeId> mns_;
    std::uint32_t offload_id_;
};

} // namespace clio

#endif // CLIO_APPS_KV_STORE_HH
