/**
 * @file
 * Cluster wiring + the global controller for distributed MNs (§4.7).
 *
 * A Cluster owns the event queue, the network, N compute nodes and M
 * CBoards, and plays the paper's *global controller* role:
 *  - assigns coarse (1 GB) virtual regions of each process' RAS to
 *    MNs, so VAs from different MNs never collide (two-level
 *    distributed virtual memory management, inherited from LegoOS);
 *  - places new allocations on the least-pressured MN;
 *  - migrates rarely-needed regions away from MNs under memory
 *    pressure (instead of swapping), §4.7.
 */

#ifndef CLIO_CLUSTER_CLUSTER_HH
#define CLIO_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cboard/cboard.hh"
#include "clib/client.hh"
#include "clib/cnode.hh"
#include "cluster/shard_map.hh"
#include "net/network.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace clio {

class HealthPlane;

/**
 * Cluster geometry. Each rack gets its own ToR (leaf) switch; racks are
 * joined through the spine (see net/network.hh). With racks == 1 the
 * fabric degenerates to the single-ToR testbed.
 */
struct ClusterSpec
{
    std::uint32_t racks = 1;
    std::uint32_t cns_per_rack = 1;
    std::uint32_t mns_per_rack = 1;
    /** Per-MN DRAM (0 = config default 2 GB). */
    std::uint64_t mn_phys_bytes = 0;
};

/** Result of one region migration (bench/reporting). */
struct MigrationReport
{
    bool ok = false;
    VirtAddr region_start = 0;
    std::uint64_t bytes_moved = 0;
    std::uint32_t pages_moved = 0;
    Tick duration = 0;
    std::uint32_t src_mn = 0;
    std::uint32_t dst_mn = 0;
};

/** A simulated Clio deployment: CNs + MNs on one or more racks. */
class Cluster
{
  public:
    /** One rack: `ClusterSpec{1, num_cns, num_mns, mn_phys_bytes}`. */
    Cluster(const ModelConfig &cfg, std::uint32_t num_cns,
            std::uint32_t num_mns, std::uint64_t mn_phys_bytes = 0)
        : Cluster(cfg, ClusterSpec{1, num_cns, num_mns, mn_phys_bytes})
    {
    }

    /**
     * Nodes spread over spec.racks racks; the rack count picks the
     * placement policy:
     *  - one rack: the paper's controller — processes are homed
     *    round-robin over MNs and each allocation goes to the
     *    least-pressured MN;
     *  - several racks: processes are homed by the consistent-hash
     *    shard map with rack-aware preference (a process' home MN is
     *    usually in its CN's rack), and every allocation lands there.
     * Either way region ownership is predicted by the per-pid home
     * directory; only off-home grants and migrations create explicit
     * per-region entries, so per-process controller state stays O(1).
     */
    Cluster(const ModelConfig &cfg, const ClusterSpec &spec);

    ~Cluster();

    EventQueue &eventQueue() { return eq_; }
    Network &network() { return net_; }
    const ModelConfig &config() const { return cfg_; }

    std::uint32_t cnCount() const {
        return static_cast<std::uint32_t>(cns_.size());
    }
    std::uint32_t mnCount() const {
        return static_cast<std::uint32_t>(mns_.size());
    }
    CNode &cn(std::uint32_t i) { return *cns_.at(i); }
    CBoard &mn(std::uint32_t i) { return *mns_.at(i); }

    /** MN index of a network node id (panics for CN ids). */
    std::uint32_t mnIndexOf(NodeId node) const;

    /** Shard map in use (empty for one-rack clusters). */
    const ShardMap &shardMap() const { return shard_map_; }

    /** Home MN index the directory assigned to `pid`. */
    std::uint32_t homeMnOf(ProcId pid) const;

    /**
     * Create an application process on CN `cn_index` with a fresh
     * global PID, homed and placed by the cluster's policy (see the
     * ClusterSpec constructor).
     */
    ClioClient &createClient(std::uint32_t cn_index);

    std::uint32_t clientCount() const {
        return static_cast<std::uint32_t>(clients_.size());
    }
    ClioClient &client(std::uint32_t i) { return *clients_.at(i); }

    /**
     * Attach another CN's thread/process to an EXISTING remote address
     * space (§3.1: "processes running on different CNs can share
     * memory in the same RAS"). The new client shares `base`'s global
     * PID, sees all its allocations, and must coordinate with Clio's
     * synchronization primitives (rlock / rfence).
     */
    ClioClient &createSharedClient(std::uint32_t cn_index,
                                   const ClioClient &base);

    /** Run the simulation until the queue drains. */
    void run() { eq_.runAll(); }

    /**
     * Migrate one coarse region of `pid` from MN `src` to the least
     * pressured other MN (§4.7). Chooses the first live region when
     * `region_start` is 0. Functional state flips atomically; the
     * report carries the modeled duration (1 GB ≈ 1.3 s at 10 Gbps).
     */
    MigrationReport migrateRegion(ProcId pid, std::uint32_t src_mn,
                                  VirtAddr region_start = 0);

    /**
     * Controller sweep: migrate regions away from any MN whose memory
     * pressure exceeds the configured threshold. @return migrations
     * performed.
     */
    std::vector<MigrationReport> balancePressure();

    /** @{ Failure domains (chaos engine). crashMn() kills the board
     * (volatile state lost) and marks its network port down; with
     * several racks the controller reacts like §4.7's global controller
     * would: the dead MN leaves the ring and every pid homed on it is
     * re-homed rack-first onto a surviving MN (already-granted regions
     * keep explicit owner entries, so only NEW allocations move).
     * restartMn() brings the board back EMPTY and re-adds its vnodes
     * to the ring — deterministic points mean placements are restored
     * exactly, so re-homed pids move home again. killRack()/
     * restoreRack() do the same for a whole rack plus its ToR. */
    bool mnAlive(std::uint32_t i) const { return mns_.at(i)->alive(); }
    RackId rackOfMn(std::uint32_t i) const;
    void crashMn(std::uint32_t i);
    void restartMn(std::uint32_t i);
    void killRack(RackId rack);
    void restoreRack(RackId rack);
    /** CN process crash/restart (chaos / health plane). A crashed CN
     * fails its outstanding requests, drops off the fabric, and stops
     * heartbeating; with the health plane on, its lease expiry
     * triggers lock + process GC on the MNs. */
    void crashCn(std::uint32_t i);
    void restartCn(std::uint32_t i);
    /** @} */

    /** @{ Health plane (ModelConfig::health.enabled). When enabled,
     * crashMn()/restartMn() only flip the physical state — membership
     * (ring removal, re-homing, epoch bumps, auto-resync) reacts to
     * the failure DETECTOR's verdicts, with real detection latency.
     * Heartbeats self-reschedule forever, so drive health-enabled
     * simulations with runUntilTime(), not run(). */
    HealthPlane *health() { return health_.get(); }
    /** Controller placement reaction to a detector-declared MN death /
     * rejoin (called by the health plane). */
    void onMnDeclaredDead(std::uint32_t i);
    void onMnRejoined(std::uint32_t i);
    /** @} */

  private:
    /** Controller: hand `min_bytes` of fresh contiguous regions of
     * `pid`'s RAS to MN index `mn_idx`. */
    bool grantWindows(ProcId pid, std::uint32_t mn_idx,
                      std::uint64_t min_bytes);

    /** Least-pressured LIVE MN index other than `skip`; when there is
     * none, `skip` itself (0 when skipping nothing). */
    std::uint32_t leastPressuredMn(std::uint32_t skip = kNoOwner) const;

    /** Move `pid`'s directory home to `new_home`, materializing the
     * directory's owner predictions for already-granted regions into
     * explicit exception entries first (they stay where they are). */
    void rehomePid(ProcId pid, std::uint32_t new_home);

    /** Recompute every client pid's preferred home from the current
     * ring and re-home those whose directory entry differs. */
    void rehomeAllPids();

    /** Give a new client the replica registry and the allocation
     * placement hook, then keep it (both client factories). */
    ClioClient &addClient(std::unique_ptr<ClioClient> client);

    /** Per-pid next free coarse-region index slot (see next_region_). */
    std::uint64_t &nextRegionSlot(ProcId pid);
    /** Read-only peek of the same (0 = pid has no regions yet). */
    std::uint64_t nextRegionOf(ProcId pid) const;

    /** No MN owns the region (unknown pid/region). */
    static constexpr std::uint32_t kNoOwner = ~0u;
    /** Owning MN index of one granted region: the exception map, else
     * the pid's directory home — kNoOwner when the region was never
     * granted. */
    std::uint32_t regionOwnerIdx(ProcId pid, VirtAddr region_start) const;

    ModelConfig cfg_;
    EventQueue eq_;
    Network net_;
    std::vector<std::unique_ptr<CBoard>> mns_;
    std::vector<std::unique_ptr<CNode>> cns_;
    std::vector<std::unique_ptr<ClioClient>> clients_;

    ProcId next_pid_ = 1;

    /** Controller state: per-pid next free coarse-region index, a
     * flat vector indexed by the (sequential) pid — 8 bytes per
     * process instead of a map node. 0 means unassigned; real indices
     * start at 1 so VA 0 stays unused. Offload pids (0xF0000000+)
     * overflow into the side map. */
    std::vector<std::uint64_t> next_region_;
    std::map<ProcId, std::uint64_t> next_region_overflow_;
    /** (pid, region_start) -> owning MN index, for EXCEPTIONS only
     * (off-home grants and migrated regions); everything else is
     * predicted by the per-pid directory, keeping region state O(1)
     * per process. */
    std::map<std::pair<ProcId, VirtAddr>, std::uint32_t> region_owner_;

    /** Several racks: homes come from the rack-aware shard ring. */
    bool sharded_ = false;
    /** The ring (empty with one rack). */
    ShardMap shard_map_;
    /** Directory: pid -> home MN index (4 bytes per process). */
    std::vector<std::uint32_t> pid_home_mn_;

    /** Controller health plane (null unless cfg.health.enabled). */
    std::unique_ptr<HealthPlane> health_;
};

} // namespace clio

#endif // CLIO_CLUSTER_CLUSTER_HH
