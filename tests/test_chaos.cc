/**
 * @file
 * Chaos tier: randomized MN-kill / packet-fault schedules derived from
 * CLIO_SEED, checked for (a) linearizable recovery of a replicated
 * register and (b) byte-identical replay of the same chaotic schedule
 * on both event-queue engines. Registered under the `chaos` ctest
 * label (NOT `unit`), run by CI under several seeds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "chaos/fault_plan.hh"
#include "chaos/linearize.hh"
#include "clib/replication.hh"
#include "cluster/cluster.hh"
#include "cluster/health.hh"

namespace clio {
namespace {

// ---------------------------------------------------------------------
// Linearizability checker unit tests (hand-built histories)
// ---------------------------------------------------------------------

TEST(Linearize, AcceptsValidConcurrentHistory)
{
    // w(1) and r overlapping: the read may see 0 or 1.
    std::vector<HistOp> h = {
        {0, 10, 50, true, 1, true},
        {0, 20, 40, false, 0, true}, // overlaps the write, saw old value
        {0, 60, 70, false, 1, true}, // after the write, sees it
    };
    const auto rep = checkLinearizable(h);
    EXPECT_TRUE(rep.linearizable);
    EXPECT_EQ(rep.ops, 3u);
}

TEST(Linearize, RejectsStaleRead)
{
    // The write completed strictly before the read was invoked, yet
    // the read returned the old value.
    std::vector<HistOp> h = {
        {7, 10, 20, true, 5, true},
        {7, 30, 40, false, 0, true},
    };
    const auto rep = checkLinearizable(h);
    EXPECT_FALSE(rep.linearizable);
    EXPECT_EQ(rep.key, 7u);
}

TEST(Linearize, RejectsLostAckedWrite)
{
    // Acked write followed (non-overlapping) by a second acked write;
    // a later read must not resurrect the first value.
    std::vector<HistOp> h = {
        {3, 10, 20, true, 5, true},
        {3, 30, 40, true, 6, true},
        {3, 50, 60, false, 5, true},
    };
    EXPECT_FALSE(checkLinearizable(h).linearizable);
}

TEST(Linearize, FailedWriteIsAmbiguous)
{
    // A failed write may have applied...
    std::vector<HistOp> applied = {
        {1, 10, 20, true, 5, true},
        {1, 30, 0, true, 6, false}, // failed: completion unknown
        {1, 100, 110, false, 6, true},
    };
    EXPECT_TRUE(checkLinearizable(applied).linearizable);

    // ...or not; both continuations are legal.
    std::vector<HistOp> discarded = {
        {1, 10, 20, true, 5, true},
        {1, 30, 0, true, 6, false},
        {1, 100, 110, false, 5, true},
    };
    EXPECT_TRUE(checkLinearizable(discarded).linearizable);

    // But it cannot conjure a value nobody wrote.
    std::vector<HistOp> bogus = {
        {1, 10, 20, true, 5, true},
        {1, 30, 0, true, 6, false},
        {1, 100, 110, false, 9, true},
    };
    EXPECT_FALSE(checkLinearizable(bogus).linearizable);

    // Failed reads returned nothing and are dropped.
    std::vector<HistOp> failed_read = {
        {1, 10, 20, true, 5, true},
        {1, 30, 40, false, 0, false},
    };
    const auto rep = checkLinearizable(failed_read);
    EXPECT_TRUE(rep.linearizable);
    EXPECT_EQ(rep.ops, 1u);
}

// ---------------------------------------------------------------------
// Randomized plan derivation
// ---------------------------------------------------------------------

// One seed, all three outage kinds plus a heartbeat-loss window: every
// chaos schedule replays only while randomized() keeps each RNG draw
// where it is.
TEST(FaultPlan, RandomizedScheduleIsPinnedPerSeed)
{
    FaultPlan::RandomOpts opts;
    opts.duration = 2 * kMillisecond;
    opts.candidates = {0, 1, 2, 3};
    opts.crashes = 2;
    opts.min_downtime = 100 * kMicrosecond;
    opts.max_downtime = 300 * kMicrosecond;
    opts.drop_rate = 0.01;
    opts.cn_candidates = {1, 2, 3};
    opts.cn_crashes = 1;
    opts.rack_candidates = {1, 2};
    opts.rack_kills = 1;
    opts.hb_loss_rate = 1.0;
    opts.hb_loss_duration = 100 * kMicrosecond;
    const FaultPlan plan = FaultPlan::randomized(42, opts);

    using K = FaultAction::Kind;
    const std::vector<FaultAction> want = {
        {801212470, K::kCrashMn, 0},   {967520119, K::kRestartMn, 0},
        {1352643086, K::kCrashMn, 2},  {1650271509, K::kRestartMn, 2},
        {970137123, K::kCrashCn, 1},   {1107964189, K::kRestartCn, 1},
        {1074116342, K::kKillRack, 1}, {1217843769, K::kRestoreRack, 1},
    };
    EXPECT_EQ(plan.actions(), want);
    ASSERT_EQ(plan.windows().size(), 2u);
    EXPECT_TRUE(plan.windows()[1].heartbeats_only);
    EXPECT_EQ(plan.windows()[1].start, 866386497u);
    EXPECT_EQ(plan.windows()[1].end, 966386497u);

    // No MN crash asked for: the MN candidates are still shuffled, so
    // the CN and rack draws stay where they were.
    opts.crashes = 0;
    const std::vector<FaultAction> want_no_mn = {
        {1352643086, K::kCrashCn, 1}, {1650271509, K::kRestartCn, 1},
        {695607547, K::kKillRack, 1}, {828543343, K::kRestoreRack, 1},
    };
    EXPECT_EQ(FaultPlan::randomized(42, opts).actions(), want_no_mn);
}

// ---------------------------------------------------------------------
// Dead-MN timeout surfacing (regression for the no-hang guarantee)
// ---------------------------------------------------------------------

TEST(Chaos, DeadMnRequestsReturnTimeout)
{
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    std::uint64_t v = 42;
    ASSERT_EQ(client.rwrite(addr, &v, 8), Status::kOk);

    // Permanent crash: every request must exhaust its retries and
    // surface kTimeout — never hang the submitting client.
    cluster.crashMn(0);
    const Tick before = cluster.eventQueue().now();
    EXPECT_EQ(client.rwrite(addr, &v, 8), Status::kTimeout);
    EXPECT_EQ(client.rread(addr, &v, 8), Status::kTimeout);
    // Retries + exponential backoff are bounded: well under a second
    // of simulated time for a data-path op.
    EXPECT_LT(cluster.eventQueue().now() - before, kSecond);
    EXPECT_GE(cluster.cn(0).stats().timeouts,
              2u * (cfg.clib.max_retries + 1));

    // The board restarts EMPTY: the old allocation is gone, and a
    // populated re-allocation reads zero, not the old bytes.
    cluster.restartMn(0);
    EXPECT_EQ(client.rread(addr, &v, 8), Status::kBadAddress);
    EXPECT_EQ(cluster.mn(0).stats().crashes, 1u);
    const VirtAddr again =
        client.ralloc(4 * MiB, kPermReadWrite, /*populate=*/true).value_or(0);
    ASSERT_NE(again, 0u);
    EXPECT_EQ(client.rread(again, &v, 8), Status::kOk);
    EXPECT_EQ(v, 0u);
}

// ---------------------------------------------------------------------
// Replica heal after rejoin
// ---------------------------------------------------------------------

TEST(Chaos, ReplicatedRegionHealsAfterRejoin)
{
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    std::uint64_t v1 = 0xA1;
    ASSERT_EQ(region.write(0, &v1, 8), Status::kOk);

    // Primary board dies for real (port down + volatile state lost).
    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xA1u);
    EXPECT_EQ(region.failovers(), 1u);
    EXPECT_FALSE(region.primaryAlive());

    // Degraded write lands on the backup only.
    std::uint64_t v2 = 0xA2;
    ASSERT_EQ(region.write(8, &v2, 8), Status::kOk);

    // Rejoin + re-replicate onto the restarted (empty) board.
    cluster.restartMn(0);
    ASSERT_EQ(region.heal(cluster.mn(0).nodeId()), Status::kOk);
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_EQ(region.resyncs(), 1u);

    // The healed copy serves reads directly (read-one, primary first):
    // both the pre-crash and the degraded-mode bytes must be there.
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xA1u);
    ASSERT_EQ(region.read(8, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xA2u);
    EXPECT_EQ(region.failovers(), 1u); // no further failovers
}

// ---------------------------------------------------------------------
// Rack-level failure domain
// ---------------------------------------------------------------------

TEST(Chaos, RackKillDropsAndRecovers)
{
    auto cfg = ModelConfig::prototype();
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);
    ClioClient &client = cluster.createClient(0);
    const std::uint32_t home = cluster.homeMnOf(client.pid());
    const RackId home_rack = cluster.rackOfMn(home);

    const VirtAddr addr = client.ralloc(1 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    std::uint64_t v = 77;
    ASSERT_EQ(client.rwrite(addr, &v, 8), Status::kOk);

    // Killing an unrelated rack leaves rack-local traffic untouched.
    const RackId other = (home_rack + 1) % spec.racks;
    cluster.killRack(other);
    EXPECT_EQ(cluster.shardMap().mnCount(), 2u);
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, 8), Status::kOk);
    EXPECT_EQ(out, 77u);
    cluster.restoreRack(other);
    EXPECT_EQ(cluster.shardMap().mnCount(), 3u);

    // Killing the process' own rack (its ToR): requests can't leave
    // the NIC and surface kTimeout, not a hang.
    cluster.killRack(home_rack);
    EXPECT_EQ(client.rread(addr, &out, 8), Status::kTimeout);

    // Restore: the ring is exactly as before (deterministic vnode
    // points), the pid is homed back, but the board came back empty.
    cluster.restoreRack(home_rack);
    EXPECT_EQ(cluster.shardMap().mnCount(), 3u);
    EXPECT_EQ(cluster.homeMnOf(client.pid()), home);
    EXPECT_EQ(client.rread(addr, &out, 8), Status::kBadAddress);
    const VirtAddr addr2 = client.ralloc(1 * MiB).value_or(0);
    ASSERT_NE(addr2, 0u);
    ASSERT_EQ(client.rwrite(addr2, &v, 8), Status::kOk);
}

// ---------------------------------------------------------------------
// Randomized crash/recovery schedule, checked for linearizability
// ---------------------------------------------------------------------

/** Keys of the replicated register the chaos runs drive. */
constexpr std::uint64_t kKeys = 8;

/** Read `key` back through `region`, recording the op in `history`. */
void
readKey(ReplicatedRegion &region, EventQueue &eq, std::uint64_t key,
        std::vector<HistOp> &history)
{
    const Tick invoked = eq.now();
    std::uint64_t out = 0;
    const Status st = region.read(key * 8, &out, 8);
    history.push_back(
        {key, invoked, eq.now(), false, out, st == Status::kOk});
}

/** `ops` register ops drawn from `rng`: every key is written first,
 * then writes and reads mix 60/40. */
void
runRegisterOps(ReplicatedRegion &region, EventQueue &eq, Rng &rng,
               std::uint64_t ops, std::vector<HistOp> &history)
{
    std::uint64_t wseq = 1;
    for (std::uint64_t i = 0; i < ops; i++) {
        const std::uint64_t key = i < kKeys ? i : rng.uniformInt(kKeys);
        if (i >= kKeys && !rng.chance(0.6)) {
            readKey(region, eq, key, history);
            continue;
        }
        const Tick invoked = eq.now();
        const std::uint64_t value = ((key + 1) << 20) + wseq++;
        const Status st = region.write(key * 8, &value, 8);
        history.push_back(
            {key, invoked, eq.now(), true, value, st == Status::kOk});
    }
}

struct ChaosRun
{
    std::vector<HistOp> history;
    ChaosStats chaos;
    std::uint64_t net_drops = 0;
    std::uint64_t net_corrupts = 0;
    std::uint64_t net_duplicates = 0;
    std::uint64_t cn_retries = 0;
    std::uint64_t cn_timeouts = 0;
    std::uint64_t resyncs = 0;
    Tick end_time = 0;

    bool operator==(const ChaosRun &) const = default;
};

/** One full chaotic run: 3 racks, a replicated register under a
 * randomized primary-kill + packet-fault schedule, healed at the end.
 * Everything is derived from `seed`, so two runs with equal seeds must
 * produce identical histories and counters. */
ChaosRun
runChaosSchedule(std::uint64_t seed, EventQueueImpl impl)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.event_queue_impl = impl;
    cfg.clib.max_retries = 4;
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);
    ClioClient &client = cluster.createClient(0);
    const std::uint32_t primary_idx = cluster.homeMnOf(client.pid());
    const std::uint32_t backup_idx =
        (primary_idx + 1) % cluster.mnCount();
    ReplicatedRegion region(client, 1 * MiB,
                            cluster.mn(primary_idx).nodeId(),
                            cluster.mn(backup_idx).nodeId());
    EXPECT_TRUE(region.ok());

    FaultPlan::RandomOpts opts;
    opts.duration = 400 * kMicrosecond;
    opts.candidates = {primary_idx};
    opts.crashes = 1;
    opts.min_downtime = 80 * kMicrosecond;
    opts.max_downtime = 150 * kMicrosecond;
    opts.drop_rate = 0.02;
    opts.corrupt_rate = 0.03;
    opts.duplicate_rate = 0.03;
    const FaultPlan plan = FaultPlan::randomized(seed, opts);
    FaultInjector injector(cluster, plan, seed + 1);
    injector.arm();

    EventQueue &eq = cluster.eventQueue();
    Rng workload(seed + 2);
    ChaosRun run;
    runRegisterOps(region, eq, workload, 120, run.history);

    // Run past the plan horizon so the restart definitely happened,
    // then re-replicate onto the restarted board and read everything
    // back through the healed copy.
    eq.runUntilTime(std::max(eq.now(), plan.horizon()) + kMillisecond);
    EXPECT_TRUE(cluster.mnAlive(primary_idx));
    EXPECT_TRUE(cluster.mnAlive(backup_idx));
    if (!region.primaryAlive() || !region.backupAlive()) {
        const std::uint32_t dead_idx =
            region.primaryAlive() ? backup_idx : primary_idx;
        EXPECT_EQ(region.heal(cluster.mn(dead_idx).nodeId()),
                  Status::kOk);
    }
    for (std::uint64_t key = 0; key < kKeys; key++)
        readKey(region, eq, key, run.history);

    run.chaos = injector.stats();
    run.net_drops = cluster.network().stats().dropped_fault;
    run.net_corrupts = cluster.network().stats().corrupted;
    run.net_duplicates = cluster.network().stats().duplicated;
    run.cn_retries = cluster.cn(0).stats().retries;
    run.cn_timeouts = cluster.cn(0).stats().timeouts;
    run.resyncs = region.resyncs();
    run.end_time = eq.now();
    return run;
}

TEST(Chaos, RandomizedCrashRecoveryLinearizable)
{
    const std::uint64_t seed = ModelConfig::prototype().seed;
    const ChaosRun run =
        runChaosSchedule(seed, EventQueueImpl::kDefault);

    // The schedule actually did chaos: the primary died and came back.
    EXPECT_EQ(run.chaos.crashes, 1u);
    EXPECT_EQ(run.chaos.restarts, 1u);
    EXPECT_EQ(run.resyncs, 1u);

    // Post-heal reads all completed (the final 8 history entries).
    const std::size_t n = run.history.size();
    for (std::size_t i = n - 8; i < n; i++) {
        EXPECT_TRUE(run.history[i].ok)
            << "post-heal read of key " << run.history[i].key
            << " failed";
    }

    const LinearizeReport rep = checkLinearizable(run.history);
    EXPECT_TRUE(rep.linearizable)
        << "history not linearizable at key " << rep.key << " (seed "
        << seed << ")";
}

TEST(Chaos, ChaosScheduleByteIdentical)
{
    const std::uint64_t seed = ModelConfig::prototype().seed;

    // Same seed, same engine: identical replay.
    const ChaosRun w1 =
        runChaosSchedule(seed, EventQueueImpl::kTimingWheel);
    const ChaosRun w2 =
        runChaosSchedule(seed, EventQueueImpl::kTimingWheel);
    EXPECT_TRUE(w1 == w2)
        << "same chaotic schedule diverged across two runs";

    // Same seed, other engine: the wheel and the heap order events
    // identically even under chaos.
    const ChaosRun h1 =
        runChaosSchedule(seed, EventQueueImpl::kBinaryHeap);
    EXPECT_TRUE(w1 == h1)
        << "wheel and heap diverged under the same chaotic schedule";

    // And a different seed explores a different schedule (sanity that
    // the seed actually drives the chaos).
    const ChaosRun other =
        runChaosSchedule(seed + 1, EventQueueImpl::kTimingWheel);
    EXPECT_FALSE(w1 == other);
}

// ---------------------------------------------------------------------
// Self-healing under randomized chaos: MN + CN crashes, a rack kill,
// and a heartbeat-loss window — with the controller health plane doing
// ALL recovery (zero client heal() calls).
// ---------------------------------------------------------------------

struct SelfHealRun
{
    std::vector<HistOp> history;
    ChaosStats chaos;
    std::uint64_t epoch = 0;
    std::uint64_t beacons = 0;
    std::uint64_t suspects = 0;
    std::uint64_t deaths = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t resyncs_completed = 0;
    std::uint64_t region_resyncs = 0;
    bool fully_redundant = false;
    Tick end_time = 0;
    /** (kind, tick, node, region) of every health-plane event. */
    std::vector<std::tuple<std::uint8_t, Tick, NodeId, std::uint64_t>>
        events;

    bool operator==(const SelfHealRun &) const = default;
};

/**
 * One self-healing chaotic run: 3 racks x (2 CN + 2 MN), health plane
 * on, a replicated register with copies in racks 0 and 1, and a
 * randomized schedule that kills the primary's MN (downtime > the
 * lease, so the death is always detected), one bystander CN, and rack
 * 2 (controller, client, and both replicas live elsewhere), plus a
 * 70 us heartbeat-only loss window (short enough of dead_after that it
 * causes suspicion, never a false death). The client only reads and
 * writes; every repair is controller-driven.
 */
SelfHealRun
runSelfHealingSchedule(std::uint64_t seed, EventQueueImpl impl)
{
    auto cfg = ModelConfig::prototype();
    cfg.seed = seed;
    cfg.event_queue_impl = impl;
    cfg.clib.max_retries = 4;
    cfg.health.enabled = true;
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 2;
    spec.mns_per_rack = 2;
    Cluster cluster(cfg, spec);
    ClioClient &client = cluster.createClient(0); // rack 0
    HealthPlane *hp = cluster.health();
    EXPECT_NE(hp, nullptr);

    // Replicas in racks 0 and 1: rack 2 stays replica-free so killing
    // it exercises membership churn without touching the region.
    std::uint32_t primary_idx = cluster.mnCount();
    std::uint32_t backup_idx = cluster.mnCount();
    for (std::uint32_t i = 0; i < cluster.mnCount(); i++) {
        if (cluster.rackOfMn(i) == 0 && primary_idx == cluster.mnCount())
            primary_idx = i;
        if (cluster.rackOfMn(i) == 1 && backup_idx == cluster.mnCount())
            backup_idx = i;
    }
    ReplicatedRegion region(client, 1 * MiB,
                            cluster.mn(primary_idx).nodeId(),
                            cluster.mn(backup_idx).nodeId());
    EXPECT_TRUE(region.ok());

    FaultPlan::RandomOpts opts;
    opts.duration = 2 * kMillisecond;
    opts.candidates = {primary_idx};
    opts.crashes = 1;
    // Downtime exceeds dead_after: the death is always detected, so
    // every schedule exercises the auto-resync path.
    opts.min_downtime = 250 * kMicrosecond;
    opts.max_downtime = 400 * kMicrosecond;
    opts.drop_rate = 0.01;
    opts.corrupt_rate = 0.02;
    opts.duplicate_rate = 0.02;
    // One bystander CN dies too (never CN 0, the app client's host).
    opts.cn_candidates = {1, 2, 3};
    opts.cn_crashes = 1;
    // Rack 2 only: rack 0 holds the controller and the client.
    opts.rack_candidates = {2};
    opts.rack_kills = 1;
    // Total heartbeat loss for 70 us: with a 20 us beacon period a
    // node's silent gap is 70-90 us — past suspect_after (60 us). The
    // drop and corrupt rates above hit beacons too, and each beacon
    // they take adds 20 us, so a false death at dead_after (150 us)
    // needs four more lost next to the window. A 100 us window leaves
    // room for only two, and the false death of the surviving
    // replica's MN or of CN 0 then loses the region on a few seeds in
    // a thousand.
    opts.hb_loss_rate = 1.0;
    opts.hb_loss_duration = 70 * kMicrosecond;
    const FaultPlan plan = FaultPlan::randomized(seed, opts);
    FaultInjector injector(cluster, plan, seed + 1);
    injector.arm();

    EventQueue &eq = cluster.eventQueue();
    Rng workload(seed + 2);
    SelfHealRun run;
    runRegisterOps(region, eq, workload, 150, run.history);

    // Settle well past the horizon: detection (<= dead_after + a few
    // beacons), the chunked copy (~2 ms for 1 MiB), and any deferred
    // retries after a replacement died mid-copy all fit comfortably.
    eq.runUntilTime(std::max(eq.now(), plan.horizon()) +
                    15 * kMillisecond);
    // ...except a resync whose alloc the fault window dropped: the
    // alloc waits out slow_op_timeout before its retry. Run on until
    // the resync is over, so the region is never torn down with one in
    // flight; the bound outlasts every attempt of the alloc timing out.
    const Tick resync_deadline =
        eq.now() + 2 * (cfg.clib.max_retries + 1) * cfg.clib.slow_op_timeout;
    eq.runUntil([&] {
        return !region.resyncActive() || eq.now() >= resync_deadline;
    });
    EXPECT_FALSE(region.resyncActive()) << "seed " << seed;

    // NO heal() call anywhere in this run: redundancy is restored by
    // the controller alone. Reads must see every acked write through
    // whatever replica set the plane converged on.
    for (std::uint64_t key = 0; key < kKeys; key++)
        readKey(region, eq, key, run.history);

    run.chaos = injector.stats();
    run.epoch = hp->epoch();
    run.beacons = hp->stats().beacons;
    run.suspects = hp->stats().suspects;
    run.deaths = hp->stats().deaths;
    run.rejoins = hp->stats().rejoins;
    run.resyncs_completed = hp->stats().resyncs_completed;
    run.region_resyncs = region.resyncs();
    run.fully_redundant = region.fullyRedundant();
    run.end_time = eq.now();
    for (const HealthEvent &e : hp->events())
        run.events.emplace_back(static_cast<std::uint8_t>(e.kind), e.at,
                                e.node, e.region_id);
    return run;
}

TEST(Chaos, SelfHealingRestoresRedundancyAndStaysLinearizable)
{
    const std::uint64_t seed = ModelConfig::prototype().seed;
    const SelfHealRun run =
        runSelfHealingSchedule(seed, EventQueueImpl::kDefault);

    // The schedule really was chaotic...
    EXPECT_EQ(run.chaos.crashes, 1u);
    EXPECT_EQ(run.chaos.cn_crashes, 1u);
    EXPECT_EQ(run.chaos.rack_kills, 1u);
    // ...and the plane saw it all: the primary MN, the bystander CN,
    // and rack 2's four nodes all died and rejoined.
    EXPECT_GE(run.deaths, 3u);
    EXPECT_GE(run.rejoins, 3u);
    EXPECT_GE(run.epoch, 1u + run.deaths + run.rejoins);
    // The heartbeat-loss window starved leases into suspicion, but
    // (being shorter than dead_after) never into a false death.
    EXPECT_GE(run.suspects, 1u);

    // The tentpole claim: full redundancy back with ZERO heal() calls.
    EXPECT_TRUE(run.fully_redundant) << "seed " << seed;
    EXPECT_GE(run.region_resyncs, 1u);
    EXPECT_GE(run.resyncs_completed, 1u);

    // Post-recovery reads all completed.
    const std::size_t n = run.history.size();
    for (std::size_t i = n - 8; i < n; i++) {
        EXPECT_TRUE(run.history[i].ok)
            << "post-recovery read of key " << run.history[i].key
            << " failed (seed " << seed << ")";
    }

    const LinearizeReport rep = checkLinearizable(run.history);
    EXPECT_TRUE(rep.linearizable)
        << "history not linearizable at key " << rep.key << " (seed "
        << seed << ")";
}

TEST(Chaos, SelfHealingScheduleByteIdentical)
{
    const std::uint64_t seed = ModelConfig::prototype().seed;
    const SelfHealRun w1 =
        runSelfHealingSchedule(seed, EventQueueImpl::kTimingWheel);
    const SelfHealRun w2 =
        runSelfHealingSchedule(seed, EventQueueImpl::kTimingWheel);
    EXPECT_TRUE(w1 == w2)
        << "same self-healing schedule diverged across two runs";

    const SelfHealRun h1 =
        runSelfHealingSchedule(seed, EventQueueImpl::kBinaryHeap);
    EXPECT_TRUE(w1 == h1)
        << "wheel and heap diverged under the same self-healing "
           "schedule";

    const SelfHealRun other =
        runSelfHealingSchedule(seed + 1, EventQueueImpl::kTimingWheel);
    EXPECT_FALSE(w1 == other);
}

} // namespace
} // namespace clio
