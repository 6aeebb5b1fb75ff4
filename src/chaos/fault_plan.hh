/**
 * @file
 * Deterministic fault injection for chaos testing.
 *
 * A FaultPlan is pure data: a schedule of node/rack failure events
 * (MN crashes, restarts, rack ToR kills) plus packet-fault windows
 * (drop/corrupt/duplicate probabilities active over a time range).
 * A FaultInjector arms a plan against a Cluster: failure actions
 * become ordinary simulator events and packet faults install the
 * Network's per-hop fault hook, drawing from an Rng seeded by
 * the plan's seed. Everything downstream of one (plan, seed) pair is
 * deterministic, so a chaotic run replays byte-identically — that is
 * what lets the chaos ctest tier assert linearizable recovery AND
 * byte-compare two runs of the same schedule.
 *
 * Plans come from two sources: explicit builder calls (regression
 * tests pinning one scenario) and FaultPlan::randomized() (the chaos
 * tier, which derives a schedule from CLIO_SEED so every CI seed
 * explores a different kill/drop/corrupt pattern). Randomized plans
 * always restart what they crash before the horizon, so recovery is
 * part of every schedule.
 */

#ifndef CLIO_CHAOS_FAULT_PLAN_HH
#define CLIO_CHAOS_FAULT_PLAN_HH

#include <cstdint>
#include <vector>

#include "net/network.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {

class Cluster;

/** One scheduled failure-domain action. */
struct FaultAction
{
    enum class Kind : std::uint8_t {
        kCrashMn,    ///< kill one MN board (volatile state lost)
        kRestartMn,  ///< bring a crashed board back (empty)
        kKillRack,   ///< ToR dies: the rack's MNs crash, traffic drops
        kRestoreRack,///< ToR + the rack's MNs come back
        kCrashCn,    ///< kill one CN (its processes die mid-request)
        kRestartCn   ///< bring a crashed CN back (fresh transport)
    };
    Tick at = 0;
    Kind kind = Kind::kCrashMn;
    /** MN/CN index (crash/restart) or rack id (kill/restore). */
    std::uint32_t target = 0;

    bool operator==(const FaultAction &) const = default;
};

/** Packet-fault probabilities active while start <= now < end, drawn
 * once per hop a packet traverses. */
struct PacketFaultWindow
{
    Tick start = 0;
    Tick end = 0;
    double drop_rate = 0.0;
    double corrupt_rate = 0.0;
    double duplicate_rate = 0.0;
    /** Apply only to heartbeat packets (lease-loss windows: starves
     * the failure detector while data traffic flows untouched, the
     * classic false-positive scenario for lease protocols). */
    bool heartbeats_only = false;
};

/** Counters of what an armed injector actually did. */
struct ChaosStats
{
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t rack_kills = 0;
    std::uint64_t rack_restores = 0;
    std::uint64_t cn_crashes = 0;
    std::uint64_t cn_restarts = 0;
    std::uint64_t drops = 0;
    std::uint64_t corrupts = 0;
    std::uint64_t duplicates = 0;

    bool operator==(const ChaosStats &) const = default;
};

/** A declarative chaos schedule (pure data, cheap to copy). */
class FaultPlan
{
  public:
    /** @{ Fluent builders (explicit scenarios). */
    FaultPlan &crashMn(Tick at, std::uint32_t mn_idx)
    {
        return add(at, FaultAction::Kind::kCrashMn, mn_idx);
    }
    FaultPlan &restartMn(Tick at, std::uint32_t mn_idx)
    {
        return add(at, FaultAction::Kind::kRestartMn, mn_idx);
    }
    FaultPlan &killRack(Tick at, RackId rack)
    {
        return add(at, FaultAction::Kind::kKillRack, rack);
    }
    FaultPlan &restoreRack(Tick at, RackId rack)
    {
        return add(at, FaultAction::Kind::kRestoreRack, rack);
    }
    FaultPlan &crashCn(Tick at, std::uint32_t cn_idx)
    {
        return add(at, FaultAction::Kind::kCrashCn, cn_idx);
    }
    FaultPlan &restartCn(Tick at, std::uint32_t cn_idx)
    {
        return add(at, FaultAction::Kind::kRestartCn, cn_idx);
    }
    FaultPlan &packetFaults(const PacketFaultWindow &window);
    /** @} */

    const std::vector<FaultAction> &actions() const { return actions_; }
    const std::vector<PacketFaultWindow> &windows() const
    {
        return windows_;
    }

    /** Last scheduled instant in the plan (action times and window
     * ends); runs should simulate past this before checking recovery. */
    Tick horizon() const;

    /** Knobs for randomized(). */
    struct RandomOpts
    {
        /** Plan duration; every restart lands before this. */
        Tick duration = 0;
        /** MN indices eligible to be crashed. */
        std::vector<std::uint32_t> candidates;
        /** How many of the candidates get a crash+restart pair. */
        std::uint32_t crashes = 1;
        /** Downtime bounds for each crash. */
        Tick min_downtime = 0;
        Tick max_downtime = 0;
        /** Packet-fault window covering [0, duration). */
        double drop_rate = 0.0;
        double corrupt_rate = 0.0;
        double duplicate_rate = 0.0;
        /** @{ CN crash+restart pairs (like the MN knobs above; drawn
         * after everything above, and only when cn_crashes > 0). */
        std::vector<std::uint32_t> cn_candidates;
        std::uint32_t cn_crashes = 0;
        /** @} */
        /** @{ Rack kill+restore pairs (same downtime bounds). */
        std::vector<std::uint32_t> rack_candidates;
        std::uint32_t rack_kills = 0;
        /** @} */
        /** @{ One heartbeat-only drop window of `hb_loss_duration`
         * starting at a seed-derived time: starves the failure
         * detector without touching data traffic. */
        double hb_loss_rate = 0.0;
        Tick hb_loss_duration = 0;
        /** @} */
    };

    /**
     * Derive a schedule from `seed`: up to opts.crashes distinct
     * candidates each get one crash at a uniform time in the first
     * ~70% of the duration and a restart after a uniform downtime
     * (clamped so recovery completes before the horizon), plus one
     * packet-fault window spanning the whole duration.
     */
    static FaultPlan randomized(std::uint64_t seed,
                                const RandomOpts &opts);

  private:
    FaultPlan &add(Tick at, FaultAction::Kind kind, std::uint32_t target);

    /** `count` outages on distinct victims picked by a seeded shuffle
     * of `victims`: each goes `down` at a uniform time in the first
     * ~70% of opts.duration and comes back `up` after a uniform
     * downtime, clamped so it lands inside the plan. */
    void addOutages(Rng &rng, const RandomOpts &opts,
                    std::vector<std::uint32_t> victims,
                    std::uint32_t count, FaultAction::Kind down,
                    FaultAction::Kind up);

    std::vector<FaultAction> actions_;
    std::vector<PacketFaultWindow> windows_;
};

/**
 * Arms a FaultPlan against a live Cluster. The injector must outlive
 * the simulation run: scheduled events and the network hook capture
 * `this`. The destructor clears the hook.
 */
class FaultInjector
{
  public:
    FaultInjector(Cluster &cluster, FaultPlan plan, std::uint64_t seed);
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Schedule every action and install the packet-fault hook. */
    void arm();

    const ChaosStats &stats() const { return stats_; }

  private:
    void fire(const FaultAction &action);
    FaultVerdict onHop(const Packet &pkt);

    Cluster &cluster_;
    FaultPlan plan_;
    Rng rng_;
    bool armed_ = false;
    ChaosStats stats_;
};

} // namespace clio

#endif // CLIO_CHAOS_FAULT_PLAN_HH
