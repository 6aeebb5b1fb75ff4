/**
 * @file
 * Controller-resident health plane: lease-based failure detection,
 * epoch-fenced membership, and automatic re-replication.
 *
 * The paper keeps MNs transportless and pushes all policy to the
 * global controller (§4.7); this layer gives that controller a
 * liveness view. Every CN and CBoard emits periodic heartbeat packets
 * through the simulated fabric — rack kills, congestion, and chaos
 * fault windows genuinely delay or drop them — and the controller runs
 * a lease protocol over their arrival times:
 *
 *   alive --(no beacon for suspect_after)--> suspected
 *   suspected --(no beacon for dead_after)--> dead
 *   suspected --(beacon)--> alive            (late but live)
 *   dead --(beacon)--> alive + REJOIN        (restart or partition heal)
 *
 * A beacon whose incarnation (restart count) jumped is a crash+restart
 * that fit inside one lease window: the controller treats it as a
 * death immediately followed by a rejoin even though no deadline
 * expired — the node's volatile state is gone either way.
 *
 * Membership changes bump a monotonically increasing epoch. CNs stamp
 * every request attempt with the epoch they last observed; a rejoined
 * MN gets an epoch fence equal to the rejoin epoch, so requests from
 * CNs that have not yet learned of the membership change bounce with
 * kEpochFenced instead of silently landing in a zombie's empty address
 * space (split-brain prevention). Fenced CNs refresh their epoch from
 * the controller (a control-plane RPC, modeled as instantaneous) and
 * retry.
 *
 * On declaring an MN dead the plane hands the verdict to the cluster
 * (Cluster::onMnDeclaredDead), which marks every replica on that MN
 * dead in its replica registry; the plane then queues a resync for
 * each region left degraded and drives automatic re-replication: a
 * rack-aware replacement is chosen via the shard ring, and the
 * surviving copy is streamed over as ordinary simulator events
 * (ReplicatedRegion::beginResync), at most
 * HealthConfig::max_concurrent_resyncs at a time. Reads stay on the
 * survivor during the copy (degraded mode); the region counts as fully
 * redundant only when the last chunk lands. On declaring a CN dead the
 * controller marks it (CNode::declaredDead, until it rejoins) and GCs
 * what the dead processes left behind on MNs: force-releases their
 * locks and tears down per-process state for pids that lived
 * exclusively on that CN.
 *
 * Everything here is deterministic: detector entries and registered
 * regions are kept in registration order, the resync queue is FIFO
 * with the registry's region ids (never pointers) as keys, and
 * replacement probing is salted by the stable region id.
 */

#ifndef CLIO_CLUSTER_HEALTH_HH
#define CLIO_CLUSTER_HEALTH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "clib/replication.hh"
#include "cluster/cluster.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace clio {

/** Lease state of one tracked node. */
enum class NodeHealth : std::uint8_t { kAlive, kSuspected, kDead };

const char *to_string(NodeHealth h);

/** What a beacon arrival meant for its sender's lease. */
enum class BeaconOutcome : std::uint8_t
{
    kNone,      ///< routine beacon from an alive node
    kRecovered, ///< suspected -> alive (late but within the lease)
    kRejoined,  ///< dead -> alive (restart, or a partition healed)
    /** Incarnation jumped while the lease never expired: the node
     * crashed and rebooted inside one window. Death + rejoin. */
    kRestarted,
};

/** One detector state transition (sweep output / test introspection). */
struct HealthTransition
{
    NodeId node = 0;
    NodeHealth from = NodeHealth::kAlive;
    NodeHealth to = NodeHealth::kAlive;
};

/**
 * The lease-based failure detector: a pure, clock-driven state
 * machine (no I/O, no RNG) so it can be property-tested standalone.
 * Entries are stored in registration order — iteration order, and
 * therefore transition order within one sweep, is deterministic.
 */
class FailureDetector
{
  public:
    /** No pending deadline (every tracked node is dead). */
    static constexpr Tick kNoDeadline = ~Tick{0};

    FailureDetector(Tick suspect_after, Tick dead_after);

    /** Start tracking `node`, alive, lease anchored at `now`. */
    void track(NodeId node, Tick now);

    /** Record a beacon from `node` arriving at `now`. Untracked nodes
     * are tracked implicitly. */
    BeaconOutcome onBeacon(NodeId node, std::uint64_t incarnation,
                           Tick now);

    /**
     * Apply every lease expiry up to and including `now`, in
     * registration order. A node silent past both deadlines yields two
     * transitions (alive->suspected, suspected->dead) in one sweep.
     * Deadlines are inclusive: a node whose last beacon landed at t is
     * suspected exactly at t + suspect_after and dead exactly at
     * t + dead_after.
     */
    std::vector<HealthTransition> sweep(Tick now);

    /** Earliest future tick at which some node's state would change
     * were no more beacons to arrive (kNoDeadline when none). */
    Tick nextDeadline() const;

    NodeHealth stateOf(NodeId node) const;
    std::size_t tracked() const { return entries_.size(); }

  private:
    struct Entry
    {
        NodeId node = 0;
        Tick last_beacon = 0;
        std::uint64_t incarnation = 0;
        NodeHealth state = NodeHealth::kAlive;
    };

    Entry *find(NodeId node);
    const Entry *find(NodeId node) const;

    Tick suspect_after_;
    Tick dead_after_;
    /** Registration order (deterministic sweeps). */
    std::vector<Entry> entries_;
};

/** Counters for the whole plane. */
struct HealthStats
{
    std::uint64_t beacons = 0;
    std::uint64_t suspects = 0;
    std::uint64_t deaths = 0;
    std::uint64_t mn_deaths = 0;
    std::uint64_t cn_deaths = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t silent_restarts = 0;
    std::uint64_t locks_reclaimed = 0;
    std::uint64_t procs_destroyed = 0;
    std::uint64_t resyncs_started = 0;
    std::uint64_t resyncs_completed = 0;
    std::uint64_t resyncs_failed = 0;
    /** Resyncs pushed to the backoff path (no candidate MN yet, or a
     * failed attempt awaiting retry). */
    std::uint64_t resyncs_deferred = 0;
};

/** One timestamped plane event (bench MTTR extraction / tests). */
struct HealthEvent
{
    enum class Kind : std::uint8_t
    {
        kSuspected,
        kDead,
        kRejoined,
        kSilentRestart,
        kResyncStarted,
        kResyncCompleted,
        kResyncFailed,
    };
    Kind kind = Kind::kSuspected;
    Tick at = 0;
    /** Node the event concerns (0 for pure resync events). */
    NodeId node = 0;
    /** Region the event concerns (0 for node events). */
    std::uint64_t region_id = 0;
};

const char *to_string(HealthEvent::Kind k);

/**
 * The controller health plane. Constructed by Cluster (at the end of
 * its constructor, so the controller's network node id comes after
 * every CN and MN and existing node-id assignment is untouched) when
 * ModelConfig::health.enabled is set.
 *
 * Note: heartbeats self-reschedule forever, so a health-enabled
 * simulation never drains — drive it with runUntilTime()/runUntil(),
 * not Cluster::run().
 */
class HealthPlane
{
  public:
    explicit HealthPlane(Cluster &cluster);

    /** Current membership epoch (starts at 1; every death, rejoin, and
     * silent restart bumps it). */
    std::uint64_t epoch() const { return epoch_; }

    /** Controller's network node id (heartbeat destination). */
    NodeId nodeId() const { return node_; }

    const FailureDetector &detector() const { return detector_; }
    const HealthStats &stats() const { return stats_; }
    const std::vector<HealthEvent> &events() const { return events_; }
    std::uint32_t activeResyncs() const { return active_resyncs_; }

  private:
    void onPacket(Packet pkt);
    /** Run detector expiries due now and act on the transitions. */
    void runSweep();
    /** (Re)arm the deadline-driven sweep event. */
    void scheduleCheck();

    void onNodeDead(NodeId node);
    void onNodeRejoined(NodeId node);
    void onMnDead(std::uint32_t mn_index);
    void onCnDead(NodeId node);

    /** Start queued resyncs while slots remain under the cap. */
    void pumpResyncQueue();
    void onResyncDone(std::uint64_t region_id, bool success);
    /** Put a still-queued region back on pending_ after the backoff. */
    void deferRequeue(std::uint64_t region_id);
    /** Rack-aware replacement MN for a degraded region (kNoNode =
     * none). */
    NodeId pickReplacement(const ReplicatedRegion &region,
                           std::uint64_t region_id) const;

    void logEvent(HealthEvent::Kind kind, NodeId node,
                  std::uint64_t region_id = 0);

    Cluster &cluster_;
    EventQueue &eq_;
    Network &net_;
    HealthConfig cfg_;
    NodeId node_ = 0;
    FailureDetector detector_;
    std::uint64_t epoch_ = 1;

    /** node id -> (is_mn, index into the cluster's mns_/cns_). */
    std::map<NodeId, std::pair<bool, std::uint32_t>> members_;

    /** Ids of the regions the plane is repairing: pending, resyncing,
     * or waiting on a backoff requeue. */
    std::set<std::uint64_t> queued_;
    /** FIFO of region ids awaiting a resync slot. */
    std::deque<std::uint64_t> pending_;
    std::uint32_t active_resyncs_ = 0;

    /** Generation guard: every scheduleCheck() supersedes older
     * pending sweep events. */
    std::uint64_t check_gen_ = 0;

    HealthStats stats_;
    std::vector<HealthEvent> events_;
};

} // namespace clio

#endif // CLIO_CLUSTER_HEALTH_HH
