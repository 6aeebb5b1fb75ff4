/**
 * @file
 * Tests for the self-healing control plane: the lease-based failure
 * detector as a standalone state machine (property-style, clock-driven,
 * no I/O), and the full HealthPlane integrated over the simulated
 * fabric — detection latency, epoch fencing of zombie MNs, automatic
 * re-replication, CN-death lock GC, and cross-engine determinism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "clib/queue.hh"
#include "clib/replication.hh"
#include "cluster/cluster.hh"
#include "cluster/health.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

constexpr Tick kSuspect = 60 * kMicrosecond;
constexpr Tick kDead = 150 * kMicrosecond;

// ---------------------------------------------------------------------
// FailureDetector: pure state-machine properties
// ---------------------------------------------------------------------

TEST(FailureDetector, NoFalsePositivesWithoutLoss)
{
    // A node that beacons strictly inside its lease never transitions,
    // no matter how often the detector sweeps.
    FailureDetector det(kSuspect, kDead);
    det.track(7, 0);
    Tick now = 0;
    for (int i = 0; i < 200; i++) {
        now += 20 * kMicrosecond; // well inside suspect_after
        EXPECT_TRUE(det.sweep(now - 1).empty());
        EXPECT_EQ(det.onBeacon(7, 0, now), BeaconOutcome::kNone);
        EXPECT_TRUE(det.sweep(now).empty());
        EXPECT_EQ(det.stateOf(7), NodeHealth::kAlive);
    }
    EXPECT_EQ(det.nextDeadline(), now + kSuspect);
}

TEST(FailureDetector, SuspectedThenAliveOnLateHeartbeat)
{
    FailureDetector det(kSuspect, kDead);
    det.track(3, 0);

    auto t = det.sweep(kSuspect);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].node, 3u);
    EXPECT_EQ(t[0].from, NodeHealth::kAlive);
    EXPECT_EQ(t[0].to, NodeHealth::kSuspected);

    // The beacon shows up late but before the lease fully expires:
    // suspicion is withdrawn, nothing was declared dead.
    EXPECT_EQ(det.onBeacon(3, 0, kDead - 1), BeaconOutcome::kRecovered);
    EXPECT_EQ(det.stateOf(3), NodeHealth::kAlive);
    EXPECT_TRUE(det.sweep(kDead - 1).empty());
    // And the lease is re-anchored at the beacon, not the old anchor.
    EXPECT_EQ(det.nextDeadline(), (kDead - 1) + kSuspect);
}

TEST(FailureDetector, DeadExactlyAtLeaseExpiryTick)
{
    FailureDetector det(kSuspect, kDead);
    det.track(9, 0);

    // Deadlines are inclusive: nothing at expiry-1, the transition at
    // exactly the expiry tick.
    EXPECT_EQ(det.nextDeadline(), kSuspect);
    EXPECT_TRUE(det.sweep(kSuspect - 1).empty());
    auto t = det.sweep(kSuspect);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].to, NodeHealth::kSuspected);

    EXPECT_EQ(det.nextDeadline(), kDead);
    EXPECT_TRUE(det.sweep(kDead - 1).empty());
    EXPECT_EQ(det.stateOf(9), NodeHealth::kSuspected);
    t = det.sweep(kDead);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].from, NodeHealth::kSuspected);
    EXPECT_EQ(t[0].to, NodeHealth::kDead);
    // A dead node has no pending deadline; only a beacon revives it.
    EXPECT_EQ(det.nextDeadline(), FailureDetector::kNoDeadline);

    EXPECT_EQ(det.onBeacon(9, 0, kDead + 10), BeaconOutcome::kRejoined);
    EXPECT_EQ(det.stateOf(9), NodeHealth::kAlive);
}

TEST(FailureDetector, AliveToDeadInOneSweep)
{
    // Sweeps can lag arbitrarily (the controller only wakes at
    // deadlines); one late sweep applies BOTH expiries in order.
    FailureDetector det(kSuspect, kDead);
    det.track(1, 0);
    auto t = det.sweep(kDead + 5);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].to, NodeHealth::kSuspected);
    EXPECT_EQ(t[1].to, NodeHealth::kDead);
}

TEST(FailureDetector, IncarnationJumpIsSilentRestart)
{
    FailureDetector det(kSuspect, kDead);
    det.track(4, 0);
    EXPECT_EQ(det.onBeacon(4, 0, 10), BeaconOutcome::kNone);
    // Crash + reboot inside one lease window: the lease never expired,
    // but the incarnation count jumped — volatile state is gone.
    EXPECT_EQ(det.onBeacon(4, 1, 30), BeaconOutcome::kRestarted);
    EXPECT_EQ(det.stateOf(4), NodeHealth::kAlive);
    // Same incarnation again is routine.
    EXPECT_EQ(det.onBeacon(4, 1, 50), BeaconOutcome::kNone);
}

TEST(FailureDetector, RandomScheduleMatchesOracle)
{
    // Property: after any beacon/sweep interleaving, the state equals
    // what the trivial oracle computes from the last-beacon gap. Runs
    // under pinned seeds so failures replay.
    for (const std::uint64_t seed : {11ull, 23ull, 57ull}) {
        Rng rng(seed);
        FailureDetector det(kSuspect, kDead);
        det.track(1, 0);
        Tick now = 0;
        Tick last_beacon = 0;
        for (int i = 0; i < 500; i++) {
            now += rng.uniformRange(1 * kMicrosecond,
                                    40 * kMicrosecond);
            if (rng.chance(0.7)) {
                det.onBeacon(1, 0, now);
                last_beacon = now;
            }
            det.sweep(now);
            const Tick gap = now - last_beacon;
            const NodeHealth want =
                gap >= kDead      ? NodeHealth::kDead
                : gap >= kSuspect ? NodeHealth::kSuspected
                                  : NodeHealth::kAlive;
            ASSERT_EQ(det.stateOf(1), want)
                << "seed " << seed << " step " << i << " gap " << gap;
        }
    }
}

// ---------------------------------------------------------------------
// HealthPlane: integrated over the simulated fabric
// ---------------------------------------------------------------------

ModelConfig healthConfig()
{
    auto cfg = ModelConfig::prototype();
    cfg.health.enabled = true;
    return cfg;
}

TEST(HealthPlane, DetectsMnCrashWithinLeaseBounds)
{
    auto cfg = healthConfig();
    Cluster cluster(cfg, 1, 2);
    HealthPlane *hp = cluster.health();
    ASSERT_NE(hp, nullptr);
    EventQueue &eq = cluster.eventQueue();

    // A healthy cluster's beacons flow through the real fabric with no
    // loss: zero suspicions, epoch parked at its boot value.
    eq.runUntilTime(300 * kMicrosecond);
    const std::uint64_t epoch0 = hp->epoch();
    EXPECT_EQ(epoch0, 1u);
    EXPECT_EQ(hp->stats().suspects, 0u);
    EXPECT_EQ(hp->stats().deaths, 0u);
    EXPECT_GT(hp->stats().beacons, 0u);

    const Tick crash_at = eq.now();
    const NodeId dead_node = cluster.mn(0).nodeId();
    cluster.crashMn(0);
    eq.runUntilTime(crash_at + cfg.health.dead_after +
                    4 * cfg.health.heartbeat_period);

    EXPECT_EQ(hp->detector().stateOf(dead_node), NodeHealth::kDead);
    EXPECT_EQ(hp->epoch(), epoch0 + 1);
    EXPECT_EQ(hp->stats().mn_deaths, 1u);

    // Detection latency is bounded by the lease: at least dead_after
    // minus one beacon interval (the lease anchors at the last beacon
    // BEFORE the crash), at most dead_after plus a couple of intervals.
    Tick death_tick = 0;
    for (const HealthEvent &e : hp->events())
        if (e.kind == HealthEvent::Kind::kDead && e.node == dead_node)
            death_tick = e.at;
    ASSERT_GT(death_tick, crash_at);
    EXPECT_GE(death_tick - crash_at,
              cfg.health.dead_after - 2 * cfg.health.heartbeat_period);
    EXPECT_LE(death_tick - crash_at,
              cfg.health.dead_after + 2 * cfg.health.heartbeat_period);
}

TEST(HealthPlane, ZombieMnIsFencedUntilCnsRefreshTheirEpoch)
{
    auto cfg = healthConfig();
    Cluster cluster(cfg, 1, 2);
    HealthPlane *hp = cluster.health();
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();

    // Kill MN 0, let the lease expire (epoch 2), then bring the board
    // back empty. Its resumed beacons carry a bumped incarnation, so
    // the controller records a rejoin (epoch 3) and fences the zombie
    // at the new epoch.
    cluster.crashMn(0);
    eq.runUntilTime(eq.now() + cfg.health.dead_after +
                    4 * cfg.health.heartbeat_period);
    ASSERT_EQ(hp->detector().stateOf(cluster.mn(0).nodeId()),
              NodeHealth::kDead);
    cluster.restartMn(0);
    eq.runUntilTime(eq.now() + 4 * cfg.health.heartbeat_period);
    ASSERT_EQ(hp->detector().stateOf(cluster.mn(0).nodeId()),
              NodeHealth::kAlive);
    EXPECT_EQ(hp->stats().rejoins, 1u);
    EXPECT_EQ(hp->epoch(), 3u);
    EXPECT_EQ(cluster.mn(0).epochFence(), hp->epoch());

    // The CN last pulled its epoch at boot — it is stale now.
    ASSERT_LT(cluster.cn(0).epoch(), hp->epoch());

    // First request aimed at the rejoined MN bounces on the fence; the
    // CN refreshes its epoch from the controller and retries. The
    // client sees one clean success, never the zombie's empty state.
    SubmissionBatch batch(client);
    const std::size_t slot =
        batch.alloc(1 * MiB, kPermReadWrite, false,
                    cluster.mn(0).nodeId());
    const BatchOutcome out = batch.submitAndWait();
    EXPECT_TRUE(out.completions[slot].ok());
    EXPECT_GE(cluster.mn(0).stats().epoch_fenced, 1u);
    EXPECT_GE(cluster.cn(0).stats().epoch_refreshes, 1u);
    EXPECT_EQ(cluster.cn(0).epoch(), hp->epoch());
}

TEST(HealthPlane, AutoResyncRestoresRedundancyWithoutClientHeal)
{
    auto cfg = healthConfig();
    Cluster cluster(cfg, 1, 3);
    HealthPlane *hp = cluster.health();
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();

    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    EXPECT_EQ(cluster.replicaRegistry().entries().size(), 1u);
    for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
        std::uint64_t v = 0xAB5E0000 + off;
        ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
    }

    // Kill the primary and just let the simulation run: the controller
    // detects the death, marks the replica dead, picks MN 2 and streams
    // the survivor's copy over — zero heal() calls from the client.
    cluster.crashMn(0);
    eq.runUntilTime(eq.now() + 10 * kMillisecond);

    EXPECT_TRUE(region.fullyRedundant());
    EXPECT_EQ(region.resyncs(), 1u);
    EXPECT_EQ(region.primaryMn(), cluster.mn(2).nodeId());
    EXPECT_EQ(hp->stats().resyncs_started, 1u);
    EXPECT_EQ(hp->stats().resyncs_completed, 1u);
    EXPECT_EQ(hp->stats().resyncs_failed, 0u);
    EXPECT_EQ(hp->activeResyncs(), 0u);

    // The copy is real: kill the old backup too, so every read must be
    // served by the freshly resynced replica on MN 2. The write's leg
    // to MN 1 is resent until the detector declares MN 1 dead; then it
    // acks on MN 2 alone.
    cluster.crashMn(1);
    std::uint64_t marker = 1;
    ASSERT_EQ(region.write(0, &marker, 8), Status::kOk);
    EXPECT_FALSE(region.backupAlive());
    for (std::uint64_t off = 128 * KiB; off < 1 * MiB;
         off += 128 * KiB) {
        std::uint64_t got = 0;
        ASSERT_EQ(region.read(off, &got, 8), Status::kOk) << off;
        EXPECT_EQ(got, 0xAB5E0000 + off);
    }
}

TEST(HealthPlane, ResyncDefersWhenNoCandidateExists)
{
    // Two MNs: when one dies there is nowhere to re-replicate to. The
    // controller parks the repair on the backoff path instead of
    // spinning or crashing, and the region stays readable (degraded).
    auto cfg = healthConfig();
    Cluster cluster(cfg, 1, 2);
    HealthPlane *hp = cluster.health();
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();

    ReplicatedRegion region(client, 256 * KiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0xBEEF;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    cluster.crashMn(0);
    eq.runUntilTime(eq.now() + 2 * kMillisecond);

    EXPECT_FALSE(region.fullyRedundant());
    EXPECT_EQ(hp->stats().resyncs_started, 0u);
    EXPECT_GE(hp->stats().resyncs_deferred, 1u);
    std::uint64_t got = 0;
    ASSERT_EQ(region.read(0, &got, 8), Status::kOk);
    EXPECT_EQ(got, 0xBEEFu);
}

TEST(HealthPlane, RepairStartsOnMnZeroWhenItIsTheOnlyCandidate)
{
    // Replicas on MNs 1 and 2: once MN 1 dies, MN 0 is the only place
    // to repair to, and its node id 0 must read as neither "no
    // candidate" nor "placement picks". A populated ballast region
    // makes MN 0 the most-pressured MN, so a copy left to the
    // placement policy would land on the survivor's board instead.
    auto cfg = healthConfig();
    Cluster cluster(cfg, 1, 3);
    HealthPlane *hp = cluster.health();
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();

    const VirtAddr ballast =
        client.ralloc(16 * MiB, kPermReadWrite, true).value_or(0);
    ASSERT_NE(ballast, 0u);
    ASSERT_EQ(client.mnFor(ballast), cluster.mn(0).nodeId());
    ReplicatedRegion region(client, 256 * KiB, cluster.mn(1).nodeId(),
                            cluster.mn(2).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0xC0FFEE;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    ASSERT_GT(cluster.mn(0).memoryPressure(),
              cluster.mn(2).memoryPressure());

    const std::uint64_t mn0_writes = cluster.mn(0).stats().writes;
    const std::uint64_t mn2_writes = cluster.mn(2).stats().writes;
    cluster.crashMn(1);
    eq.runUntilTime(eq.now() + 10 * kMillisecond);

    EXPECT_EQ(hp->stats().resyncs_started, 1u);
    EXPECT_EQ(hp->stats().resyncs_deferred, 0u);
    EXPECT_TRUE(region.fullyRedundant());
    EXPECT_EQ(region.primaryMn(), cluster.mn(0).nodeId());
    // The chunk copy wrote to MN 0 and never to the survivor...
    EXPECT_GT(cluster.mn(0).stats().writes, mn0_writes);
    EXPECT_EQ(cluster.mn(2).stats().writes, mn2_writes);
    // ...and the copy on MN 0 serves reads once the survivor is gone.
    cluster.crashMn(2);
    std::uint64_t got = 0;
    ASSERT_EQ(region.read(0, &got, 8), Status::kOk);
    EXPECT_EQ(got, 0xC0FFEEu);
}

TEST(HealthPlane, CnDeathReleasesOrphanedLocks)
{
    auto cfg = healthConfig();
    Cluster cluster(cfg, 2, 1);
    HealthPlane *hp = cluster.health();
    ClioClient &alice = cluster.createClient(0);
    ClioClient &bob = cluster.createSharedClient(1, alice);
    EventQueue &eq = cluster.eventQueue();

    const VirtAddr lock = alice.ralloc(4 * KiB).value_or(0);
    ASSERT_NE(lock, 0u);
    ASSERT_TRUE(bob.rlock(lock, 4));
    EXPECT_FALSE(alice.rlock(lock, 2)); // held by bob

    // Bob's CN dies holding the lock. Once the lease expires the
    // controller GCs the orphan: the lock word goes back to 0.
    cluster.crashCn(1);
    eq.runUntilTime(eq.now() + cfg.health.dead_after +
                    6 * cfg.health.heartbeat_period);

    EXPECT_EQ(hp->stats().cn_deaths, 1u);
    EXPECT_GE(hp->stats().locks_reclaimed, 1u);
    EXPECT_GE(cluster.mn(0).stats().locks_reclaimed, 1u);
    // The RAS is shared with a surviving CN, so the process itself
    // must NOT be torn down — only the dead CN's locks.
    EXPECT_EQ(hp->stats().procs_destroyed, 0u);

    EXPECT_TRUE(alice.rlock(lock, 4));
    alice.runlock(lock);
    std::uint64_t got = 0;
    EXPECT_EQ(alice.rread(lock, &got, 8), Status::kOk);
}

// ---------------------------------------------------------------------
// Determinism: the health plane replays byte-identically across runs
// and across both event-queue engines.
// ---------------------------------------------------------------------

struct HealthRunSig
{
    std::uint64_t epoch = 0;
    std::uint64_t beacons = 0;
    std::uint64_t deaths = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t resyncs_completed = 0;
    std::uint64_t region_resyncs = 0;
    bool fully_redundant = false;
    /** (kind, tick, node, region) of every plane event, in order. */
    std::vector<std::tuple<std::uint8_t, Tick, NodeId, std::uint64_t>>
        events;

    bool operator==(const HealthRunSig &) const = default;
};

HealthRunSig runHealthScenario(EventQueueImpl impl)
{
    auto cfg = healthConfig();
    cfg.event_queue_impl = impl;
    Cluster cluster(cfg, 1, 3);
    HealthPlane *hp = cluster.health();
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();

    ReplicatedRegion region(client, 512 * KiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    for (std::uint64_t off = 0; off < 512 * KiB; off += 64 * KiB) {
        std::uint64_t v = off;
        region.write(off, &v, 8);
    }
    cluster.crashMn(0);
    eq.runUntilTime(eq.now() + 1 * kMillisecond);
    cluster.restartMn(0);
    eq.runUntilTime(8 * kMillisecond);

    HealthRunSig sig;
    sig.epoch = hp->epoch();
    sig.beacons = hp->stats().beacons;
    sig.deaths = hp->stats().deaths;
    sig.rejoins = hp->stats().rejoins;
    sig.resyncs_completed = hp->stats().resyncs_completed;
    sig.region_resyncs = region.resyncs();
    sig.fully_redundant = region.fullyRedundant();
    for (const HealthEvent &e : hp->events())
        sig.events.emplace_back(static_cast<std::uint8_t>(e.kind),
                                e.at, e.node, e.region_id);
    return sig;
}

TEST(HealthPlane, ByteIdenticalAcrossRunsAndEngines)
{
    const HealthRunSig wheel1 =
        runHealthScenario(EventQueueImpl::kTimingWheel);
    const HealthRunSig wheel2 =
        runHealthScenario(EventQueueImpl::kTimingWheel);
    const HealthRunSig heap =
        runHealthScenario(EventQueueImpl::kBinaryHeap);

    ASSERT_FALSE(wheel1.events.empty());
    EXPECT_GE(wheel1.deaths, 1u);
    EXPECT_GE(wheel1.rejoins, 1u);
    EXPECT_TRUE(wheel1 == wheel2);
    EXPECT_TRUE(wheel1 == heap);
}

} // namespace
} // namespace clio
