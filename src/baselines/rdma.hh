/**
 * @file
 * RDMA baseline: a server-based memory node behind an RNIC (§2.2).
 *
 * This models the mechanisms the paper blames for RDMA's scalability
 * and tail problems, so the comparison benches reproduce Figs. 4-6,
 * 10-12 and 16-17 from the same causes:
 *  - per-connection QP contexts cached on-NIC; more active QPs than
 *    the cache holds -> host PCIe fetches on the data path (Fig. 4);
 *  - MTT/MPT (PTE and MR metadata) caches with the same behaviour,
 *    and a hard registration limit of 2^18 MRs (Fig. 5);
 *  - slow ODP page faults through the host OS: 16.8 ms (Fig. 6);
 *  - MR registration/deregistration costs that grow with size and
 *    dominate when applications need many protected regions
 *    (Fig. 12, Fig. 16);
 *  - a heavier latency tail than Clio's deterministic pipeline
 *    (host DRAM jitter + occasional multi-10s-of-us stalls, Fig. 7).
 *
 * The model is functional: registered memory carries real bytes, so
 * application-level comparisons (image compression, radix tree) read
 * back exactly what they wrote.
 */

#ifndef CLIO_BASELINES_RDMA_HH
#define CLIO_BASELINES_RDMA_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/physical_memory.hh"
#include "net/packet.hh"
#include "sim/config.hh"
#include "sim/lru_index.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {

/** Identifier types for the RDMA model. */
using QpId = std::uint32_t;
using MrId = std::uint32_t;

/** Outcome of one RDMA verb. */
struct RdmaVerbResult
{
    bool ok = false;
    /** End-to-end latency of the verb. */
    Tick latency = 0;
    /** Did the RNIC take a QP/MR/PTE cache miss or a page fault? */
    bool qp_miss = false;
    bool mr_miss = false;
    bool pte_miss = false;
    bool page_fault = false;
};

/** LRU id cache standing in for on-NIC QP/MPT/MTT caches. */
class NicCache
{
  public:
    explicit NicCache(std::uint32_t capacity);

    /** Touch an id: true = hit. Miss inserts it (evicting LRU). */
    bool touch(std::uint64_t id);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    LruIndex<std::uint64_t> lru_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** One RDMA-reachable memory node (host server + RNIC). */
class RdmaMemoryNode
{
  public:
    RdmaMemoryNode(const ModelConfig &cfg, std::uint64_t phys_bytes,
                   std::uint64_t seed = 1);

    /** Create a reliable connection (queue pair). */
    QpId createQp();

    /**
     * Register a memory region of `size` bytes.
     * @param odp on-demand paging: cheap registration, page faults on
     *        first access (vs pinned: expensive registration, no
     *        faults).
     * @param[out] latency registration cost.
     * @return nullopt when out of memory or beyond the 2^18 MR limit.
     */
    std::optional<MrId> registerMr(std::uint64_t size, bool odp,
                                   Tick &latency);

    /** Deregister; returns the cost. */
    Tick deregisterMr(MrId mr);

    /** One-sided READ of [offset, offset+len) within an MR. */
    RdmaVerbResult read(QpId qp, MrId mr, std::uint64_t offset, void *dst,
                        std::uint64_t len);

    /** One-sided WRITE. */
    RdmaVerbResult write(QpId qp, MrId mr, std::uint64_t offset,
                         const void *src, std::uint64_t len);

    const RdmaConfig &config() const { return cfg_.rdma; }

    /** Host page size used for MTT entries (4 KB huge pages are NOT
     * the default here; the paper contrasts against standard pages,
     * with hugepage pinning as the common workaround). */
    static constexpr std::uint64_t kHostPage = 4 * KiB;

  private:
    struct Mr
    {
        std::uint64_t base = 0; ///< pinned base in host memory
        std::uint64_t size = 0;
        bool odp = false;
        /** ODP: which pages have been faulted in. */
        std::unordered_set<std::uint64_t> present;
    };

    /** Common verb path: connection + MR + per-page MTT + DRAM. */
    RdmaVerbResult verb(QpId qp, MrId mr, std::uint64_t offset,
                        std::uint64_t len, bool is_write);

    ModelConfig cfg_;
    Rng rng_;
    PhysicalMemory memory_;
    std::uint64_t bump_ = 0; ///< pinned-region bump allocator
    std::uint32_t next_qp_ = 1;
    std::uint32_t next_mr_ = 1;
    std::unordered_map<MrId, Mr> mrs_;

    NicCache qp_cache_;
    NicCache mr_cache_;
    NicCache pte_cache_;

    /** RNIC wire/processing occupancy for throughput effects. */
    Tick nic_free_ = 0;
};

/** Round-trip wire time helper shared by all baseline models:
 * serialization of both directions + propagation + switch, matching
 * the Network model's fixed costs (no queueing). */
Tick wireRoundTrip(const NetConfig &net, std::uint64_t request_bytes,
                   std::uint64_t response_bytes);

} // namespace clio

#endif // CLIO_BASELINES_RDMA_HH
