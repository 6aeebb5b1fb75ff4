/**
 * @file
 * Tests for the §8 replicated-write primitive: write-all/read-one
 * semantics, replica placement, failover, degraded operation, and the
 * rule that only the controller's verdict marks a replica dead.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "chaos/fault_plan.hh"
#include "clib/replication.hh"
#include "cluster/cluster.hh"
#include "cluster/health.hh"

namespace clio {
namespace {

TEST(Replication, WriteAllReadOne)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 8 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    const char msg[] = "durable-ish";
    ASSERT_EQ(region.write(100, msg, sizeof(msg)), Status::kOk);
    char out[sizeof(msg)] = {};
    ASSERT_EQ(region.read(100, out, sizeof(out)), Status::kOk);
    EXPECT_STREQ(out, msg);
    // Both MNs hold the bytes (one write each + faults).
    EXPECT_GE(cluster.mn(0).stats().writes, 1u);
    EXPECT_GE(cluster.mn(1).stats().writes, 1u);
    EXPECT_EQ(region.failovers(), 0u);
}

TEST(Replication, FailoverServesFromBackup)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0xD00D;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    // Wipe this process' state on the primary, so reads against it
    // fail: the read fails over to the backup and marks nothing.
    cluster.mn(0).destroyProcess(client.pid());
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD00Du);
    EXPECT_EQ(region.failovers(), 1u);
    EXPECT_TRUE(region.primaryAlive());

    // Only the controller's verdict marks the primary dead; with the
    // health plane off it comes with the crash itself. Writes then
    // continue in degraded mode against the backup.
    cluster.crashMn(0);
    EXPECT_FALSE(region.primaryAlive());
    std::uint64_t v2 = 0xD11D;
    ASSERT_EQ(region.write(8, &v2, 8), Status::kOk);
    ASSERT_EQ(region.read(8, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD11Du);
}

TEST(Replication, ReplicasOnDistinctMnsByConstruction)
{
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(1).nodeId(),
                            cluster.mn(2).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 5;
    region.write(0, &v, 8);
    EXPECT_EQ(cluster.mn(0).stats().writes, 0u); // untouched MN
    region.destroy();
    // After destroy, reads fail.
    std::uint64_t out = 0;
    EXPECT_NE(region.read(0, &out, 8), Status::kOk);
}

TEST(Replication, SurvivesLossyNetwork)
{
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = 0.08;
    cfg.clib.max_retries = 10;
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    for (int i = 0; i < 50; i++) {
        std::uint64_t v = 1000 + i;
        ASSERT_EQ(region.write(static_cast<std::uint64_t>(i) * 8, &v, 8),
                  Status::kOk);
    }
    for (int i = 0; i < 50; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(region.read(static_cast<std::uint64_t>(i) * 8, &out, 8),
                  Status::kOk);
        EXPECT_EQ(out, 1000u + static_cast<unsigned>(i));
    }
}

TEST(Replication, FailoverUnderInflightBatchedWrites)
{
    // The primary dies WHILE a write-all batch is in flight: the crash
    // event is scheduled a few microseconds out and fires inside one
    // of the synchronous submitAndWait pumps.
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    // With the health plane off the controller declares the MN dead
    // at the crash, and that verdict is what marks the primary.
    bool marked_at_crash = false;
    cluster.eventQueue().scheduleAfter(5 * kMicrosecond, [&] {
        cluster.crashMn(0);
        marked_at_crash = !region.primaryAlive();
    });
    for (std::uint64_t i = 0; i < 20; i++) {
        std::uint64_t v = 0x5000 + i;
        // Every write still acks: once the primary is declared dead
        // the batch degrades to the backup.
        ASSERT_EQ(region.write(i * 8, &v, 8), Status::kOk) << i;
    }
    EXPECT_TRUE(marked_at_crash);
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_TRUE(region.backupAlive());

    // All twenty writes are readable (served by the backup).
    for (std::uint64_t i = 0; i < 20; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(region.read(i * 8, &out, 8), Status::kOk) << i;
        EXPECT_EQ(out, 0x5000 + i);
    }
}

TEST(Replication, DoubleFailureFailsFastWithoutHanging)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 1;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    // With the health plane off the controller declares each MN dead
    // at its crash, so both replicas are marked before the next op.
    cluster.crashMn(0);
    cluster.crashMn(1);
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_FALSE(region.backupAlive());

    // Every op fails instantly (no packets, no simulated time): never
    // a hang.
    const Tick t = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kRetryExceeded);
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kRetryExceeded);
    EXPECT_EQ(cluster.eventQueue().now(), t);

    // With no surviving copy there is nothing to heal from.
    cluster.restartMn(0);
    EXPECT_EQ(region.heal(cluster.mn(0).nodeId()),
              Status::kRetryExceeded);
}

TEST(Replication, ReReplicationOntoThirdMnAfterCrash)
{
    // Heal onto a DIFFERENT MN than the one that died: the replacement
    // replica may land anywhere with capacity.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    // Scatter data across the region so the chunked (256 KiB) resync
    // stream has to cover every chunk.
    for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
        std::uint64_t v = 0xBEEF0000 + off;
        ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
    }

    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk); // failover
    ASSERT_FALSE(region.primaryAlive());

    ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_EQ(region.resyncs(), 1u);
    EXPECT_GE(cluster.mn(2).stats().writes, 1u);

    // Kill the surviving ORIGINAL replica: everything must now come
    // from the re-replicated copy on MN 2.
    cluster.crashMn(1);
    for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
        ASSERT_EQ(region.read(off, &out, 8), Status::kOk) << off;
        EXPECT_EQ(out, 0xBEEF0000 + off);
    }
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_FALSE(region.backupAlive()); // declared dead at its crash
}

TEST(Replication, HealAbortsWhenSurvivorDiesMidCopy)
{
    // Regression: heal() used to return the raw read status when the
    // SOURCE of the copy died mid-stream, leaving the half-copied
    // replacement in limbo. It must abort cleanly: survivor marked
    // dead (by the controller, at its crash), kTimeout surfaced,
    // replacement never promoted.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    for (std::uint64_t off = 0; off < 4 * MiB; off += 512 * KiB) {
        std::uint64_t v = 0xCAFE0000 + off;
        ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
    }

    cluster.crashMn(0); // primary dies; backup (MN 1) is the survivor
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    ASSERT_FALSE(region.primaryAlive());

    // Kill the survivor while heal() is streaming chunks: 1 ms lands
    // well past the replacement alloc but mid-copy of a 4 MiB region.
    cluster.eventQueue().scheduleAfter(kMillisecond,
                                       [&] { cluster.crashMn(1); });
    EXPECT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kTimeout);
    EXPECT_TRUE(region.bothDead());
    EXPECT_EQ(region.resyncs(), 0u); // the half-copy never counts

    // The abandoned replacement was never marked healthy: every path
    // fails fast instead of serving half-copied bytes.
    EXPECT_NE(region.read(0, &out, 8), Status::kOk);
    std::uint64_t v = 1;
    EXPECT_NE(region.write(0, &v, 8), Status::kOk);
}

TEST(Replication, HealMirrorsWriteDuringCopy)
{
    // Regression: heal() used to run its own copy loop, so a write
    // landing while it streamed chunks was not mirrored into the
    // already-copied prefix and the healed replica kept stale bytes.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0x1111;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk); // failover
    ASSERT_FALSE(region.primaryAlive());

    // 1 ms in, chunk 0 of the 4 MiB copy has long been copied.
    Status mid_status = Status::kTimeout;
    cluster.eventQueue().scheduleAfter(kMillisecond, [&] {
        const std::uint64_t v2 = 0x2222;
        mid_status = region.write(0, &v2, 8);
    });
    ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
    EXPECT_EQ(mid_status, Status::kOk);
    EXPECT_EQ(region.primaryMn(), cluster.mn(2).nodeId());

    // Only the healed copy on MN 2 is left to serve the read.
    cluster.crashMn(1);
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0x2222u);
}

TEST(Replication, WriteDuringChunkReadReachesTheCopy)
{
    // Regression: a write overlapping the chunk whose read was still in
    // flight mirrored into the copy at once, while its survivor write
    // queued behind that read. The mirror landed first, and the chunk's
    // copy-write then overwrote it with the bytes read before the write.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0x1111;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    cluster.crashMn(0);
    EventQueue &eq = cluster.eventQueue();
    const std::uint64_t issued = cluster.cn(0).stats().requests;
    bool finished = false;
    Status result = Status::kTimeout;
    ASSERT_TRUE(region.beginResync(cluster.mn(2).nodeId(),
                                   [&](Status st) {
                                       finished = true;
                                       result = st;
                                   }));
    // The alloc, then chunk 0's read: stop with the read in flight.
    ASSERT_TRUE(eq.runUntil(
        [&] { return cluster.cn(0).stats().requests == issued + 2; }));
    v = 0x2222;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    ASSERT_TRUE(eq.runUntil([&] { return finished; }));
    ASSERT_EQ(result, Status::kOk);

    // Only the copy on MN 2 is left to serve the read.
    cluster.crashMn(1);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0x2222u);
}

TEST(Replication, HealExcludesControllerResync)
{
    // Regression: with the health plane on, the controller used to
    // start its own resync while a client heal() copied, leaving both
    // replicas on the same MN and two resyncs counted.
    auto cfg = ModelConfig::prototype();
    cfg.health.enabled = true;
    Cluster cluster(cfg, 1, 3);
    HealthPlane *hp = cluster.health();
    ASSERT_NE(hp, nullptr);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    // Mark the replica dead ahead of the controller's lease through
    // its own hook; detection then fires while heal() is copying.
    cluster.crashMn(0);
    region.markMnDead(cluster.mn(0).nodeId());
    ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
    EXPECT_GE(hp->stats().deaths, 1u);
    cluster.eventQueue().runUntilTime(cluster.eventQueue().now() +
                                      kMillisecond);

    EXPECT_EQ(region.resyncs(), 1u);
    EXPECT_EQ(hp->stats().resyncs_started, 0u);
    EXPECT_NE(region.primaryMn(), region.backupMn());
    EXPECT_EQ(region.primaryMn(), cluster.mn(2).nodeId());
    EXPECT_TRUE(region.fullyRedundant());
}

TEST(Replication, ResyncChunkSizeIsConfigurable)
{
    // Satellite: the 256 KiB copy chunk is a CLibConfig knob. A tiny
    // chunk turns a 1 MiB heal into many round trips; a huge chunk
    // into very few. Both still copy every byte.
    for (const std::uint64_t chunk : {64 * KiB, 1 * MiB}) {
        auto cfg = ModelConfig::prototype();
        cfg.clib.resync_chunk_bytes = chunk;
        Cluster cluster(cfg, 1, 3);
        ClioClient &client = cluster.createClient(0);
        ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                                cluster.mn(1).nodeId());
        ASSERT_TRUE(region.ok());
        for (std::uint64_t off = 0; off < 1 * MiB; off += 128 * KiB) {
            std::uint64_t v = 0xF00D0000 + off;
            ASSERT_EQ(region.write(off, &v, 8), Status::kOk);
        }
        cluster.crashMn(1);
        std::uint64_t v = 0;
        // The crash declared MN 1 dead: this acks on MN 0 alone.
        ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
        const std::uint64_t reads_before = cluster.mn(0).stats().reads;
        ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
        const std::uint64_t copy_reads =
            cluster.mn(0).stats().reads - reads_before;
        // One source read per chunk (the MN splits none of them).
        EXPECT_EQ(copy_reads, (1 * MiB + chunk - 1) / chunk);
        for (std::uint64_t off = 128 * KiB; off < 1 * MiB;
             off += 128 * KiB) {
            std::uint64_t got = 0;
            cluster.crashMn(0); // force reads onto the healed copy
            ASSERT_EQ(region.read(off, &got, 8), Status::kOk) << off;
            EXPECT_EQ(got, 0xF00D0000 + off);
        }
    }
}

TEST(Replication, WriteAllQuorumEdgeCases)
{
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);

    // Construction against a dead MN yields a half-born region that
    // reports !ok() instead of pretending to be replicated.
    cluster.crashMn(2);
    ReplicatedRegion broken(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(2).nodeId());
    EXPECT_FALSE(broken.ok());
    cluster.restartMn(2);

    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());

    // Degraded-mode write: the crash declared the backup dead, so
    // writes ack on the primary alone and never send to the backup.
    std::uint64_t v = 7;
    cluster.crashMn(1);
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_FALSE(region.backupAlive());
    const std::uint64_t writes_before = cluster.cn(0).stats().timeouts;
    v = 8;
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    // Neither degraded write retried the dead backup.
    EXPECT_EQ(cluster.cn(0).stats().timeouts, writes_before);

    // Read-one still answers from the surviving primary, without
    // bumping the failover counter.
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 8u);
    EXPECT_EQ(region.failovers(), 0u);

    // A write from a crashed CN fails at once and marks nothing: its
    // process is gone, so no leg is resent.
    cluster.crashCn(0);
    const Tick t = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kTimeout);
    EXPECT_EQ(cluster.eventQueue().now(), t);
    EXPECT_TRUE(region.primaryAlive());
}

// ---------------------------------------------------------------------
// Only the controller's verdict marks a replica dead: a request that
// runs out of retries against a live MN leaves its replica alone.
// ---------------------------------------------------------------------

TEST(Replication, TransportFailureKeepsALiveReplica)
{
    // Health plane off. Every packet is lost for 400 us, so both legs
    // of one write run out of retries against two live MNs. They are
    // resent until they land after the window; no replica is marked.
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    EventQueue &eq = cluster.eventQueue();

    PacketFaultWindow loss;
    loss.start = eq.now();
    loss.end = eq.now() + 400 * kMicrosecond;
    loss.drop_rate = 1.0;
    FaultInjector injector(cluster, FaultPlan().packetFaults(loss), 1);
    injector.arm();
    const std::uint64_t timeouts = cluster.cn(0).stats().timeouts;
    std::uint64_t v = 0x600D;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    // Both legs exhausted their retries at least once.
    const std::uint32_t per_leg =
        ModelConfig::prototype().clib.max_retries + 1;
    EXPECT_GE(cluster.cn(0).stats().timeouts - timeouts, 2 * per_leg);
    EXPECT_GE(eq.now(), loss.end);
    EXPECT_TRUE(region.primaryAlive());
    EXPECT_TRUE(region.backupAlive());

    // Both replicas hold the write: the backup serves it alone.
    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0x600Du);
}

TEST(Replication, FailedChunkReadKeepsTheSurvivor)
{
    // The survivor's port goes down for 1 ms mid-copy: a partition, not
    // a crash. The chunk read times out and aborts the resync, but the
    // survivor stays live, so a later heal() copies from it.
    auto cfg = ModelConfig::prototype();
    cfg.clib.max_retries = 0;
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0xC0DE;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    cluster.crashMn(0); // the survivor is the backup on MN 1
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk); // failover
    ASSERT_FALSE(region.primaryAlive());

    EventQueue &eq = cluster.eventQueue();
    Network &net = cluster.network();
    const NodeId survivor = cluster.mn(1).nodeId();
    eq.scheduleAfter(kMillisecond,
                     [&] { net.setNodeDown(survivor, true); });
    eq.scheduleAfter(2 * kMillisecond,
                     [&] { net.setNodeDown(survivor, false); });
    EXPECT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kTimeout);
    EXPECT_TRUE(region.backupAlive());
    EXPECT_EQ(region.resyncs(), 0u);

    eq.runUntilTime(eq.now() + 2 * kMillisecond); // the partition heals
    ASSERT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kOk);
    EXPECT_TRUE(region.fullyRedundant());
    cluster.crashMn(1); // only the healed copy is left
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xC0DEu);
}

TEST(Replication, TransportFailureNeverDegradesWithoutTheController)
{
    // Health plane on. The backup's port is down for 100 us, less than
    // dead_after, so the detector never declares MN 1 dead. A write
    // whose backup leg times out meanwhile is resent until it lands:
    // the region must not degrade on its own, since no death means no
    // resync would ever repair it.
    auto cfg = ModelConfig::prototype();
    cfg.health.enabled = true;
    cfg.clib.max_retries = 0;
    Cluster cluster(cfg, 1, 3);
    HealthPlane *hp = cluster.health();
    ASSERT_NE(hp, nullptr);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    EventQueue &eq = cluster.eventQueue();
    Network &net = cluster.network();

    const NodeId backup = cluster.mn(1).nodeId();
    net.setNodeDown(backup, true);
    eq.scheduleAfter(100 * kMicrosecond,
                     [&] { net.setNodeDown(backup, false); });
    const std::uint64_t timeouts = cluster.cn(0).stats().timeouts;
    std::uint64_t v = 0xFEED;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_GE(cluster.cn(0).stats().timeouts - timeouts, 1u);

    eq.runUntilTime(eq.now() + kMillisecond);
    EXPECT_EQ(hp->stats().deaths, 0u);
    EXPECT_TRUE(region.fullyRedundant());

    // The backup holds the write.
    cluster.crashMn(0);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xFEEDu);
}

TEST(Replication, FailedChunkReadFreesTheCopy)
{
    // The survivor's port goes down mid-copy; the chunk read times out
    // while the replacement MN stays live, so the half-copied target is
    // freed there instead of leaking one allocation per attempt.
    auto cfg = ModelConfig::prototype();
    cfg.clib.max_retries = 0;
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    cluster.crashMn(0);

    EventQueue &eq = cluster.eventQueue();
    Network &net = cluster.network();
    const NodeId survivor = cluster.mn(1).nodeId();
    eq.scheduleAfter(kMillisecond,
                     [&] { net.setNodeDown(survivor, true); });
    const std::uint64_t allocs = cluster.mn(2).stats().allocs;
    const std::uint64_t frees = cluster.mn(2).stats().frees;
    EXPECT_EQ(region.heal(cluster.mn(2).nodeId()), Status::kTimeout);
    eq.runUntilTime(eq.now() + kMillisecond);
    EXPECT_EQ(cluster.mn(2).stats().allocs, allocs + 1);
    EXPECT_EQ(cluster.mn(2).stats().frees, frees + 1);
}

TEST(Replication, SwappedInCopyIsOwedTheWrite)
{
    // Health plane off. A write's primary leg lands; its backup leg
    // fails in transport. Then the primary's MN crashes and a resync
    // from the backup swaps a new copy into the primary slot while the
    // write is still resending. That copy was read from the backup
    // before the write reached it, and every mirror of the write was
    // lost, so the write must be resent to the new copy.
    auto cfg = ModelConfig::prototype();
    cfg.clib.max_retries = 0;
    cfg.clib.resync_chunk_bytes = 4 * MiB; // a chunk per ordering page
    Cluster cluster(cfg, 1, 3);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 8 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    std::uint64_t v = 0x1111;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    EventQueue &eq = cluster.eventQueue();
    const NodeId backup = cluster.mn(1).nodeId();
    const NodeId spare = cluster.mn(2).nodeId();
    const auto swapped = [&] {
        return region.primaryMn() == spare && region.primaryAlive();
    };
    // Until the swap, drop the write's 8-byte requests to the backup
    // (its leg) and to the spare (its mirrors); the copy's chunks pass.
    cluster.network().setFaultHook([&](const Packet &pkt) {
        FaultVerdict verdict;
        if (pkt.type == MsgType::kWrite && !swapped() &&
            (pkt.dst == backup || pkt.dst == spare))
            verdict.drop =
                static_cast<const RequestMsg &>(*pkt.msg).size == 8;
        return verdict;
    });
    const std::uint64_t primary_writes = cluster.mn(0).stats().writes;
    bool landed_before_crash = false;
    bool finished = false;
    eq.scheduleAfter(cfg.clib.timeout / 2, [&] {
        landed_before_crash =
            cluster.mn(0).stats().writes > primary_writes;
        cluster.crashMn(0);
        ASSERT_TRUE(region.beginResync(spare, [&](Status st) {
            finished = true;
            EXPECT_EQ(st, Status::kOk);
        }));
    });
    v = 0x2222;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    cluster.network().setFaultHook(nullptr);
    EXPECT_TRUE(landed_before_crash);
    EXPECT_TRUE(finished);
    EXPECT_TRUE(region.fullyRedundant());

    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk); // from the new copy
    EXPECT_EQ(out, 0x2222u);
}

TEST(Replication, LateAttemptCannotOverwriteALaterWrite)
{
    // Health plane off. The first attempt of a write's primary leg is
    // held in the fabric past its retry budget, so the leg is resent
    // and lands, and a second write lands after it. When the held
    // attempt finally arrives, the MN must drop it as a duplicate
    // rather than roll the primary back to the first write.
    auto cfg = ModelConfig::prototype();
    cfg.clib.max_retries = 0;
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);
    ReplicatedRegion region(client, 1 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(1).nodeId());
    ASSERT_TRUE(region.ok());
    Network &net = cluster.network();
    const NodeId primary = cluster.mn(0).nodeId();

    bool held = false;
    Packet late;
    net.setFaultHook([&](const Packet &pkt) {
        FaultVerdict verdict;
        if (!held && pkt.type == MsgType::kWrite && pkt.dst == primary) {
            late = pkt;
            held = verdict.drop = true;
        }
        return verdict;
    });
    std::uint64_t v = 0xAAAA;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    ASSERT_TRUE(held);
    v = 0xBBBB;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);

    net.setFaultHook(nullptr);
    const DedupBuffer &dedup = cluster.mn(0).dedupBuffer();
    const std::uint64_t suppressed = dedup.suppressed();
    net.send(late);
    EventQueue &eq = cluster.eventQueue();
    eq.runUntilTime(eq.now() + 100 * kMicrosecond);
    EXPECT_EQ(dedup.suppressed(), suppressed + 1);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xBBBBu);
}

TEST(Replication, PrimaryOnMnZeroLandsOnMnZero)
{
    // MN 0's node id 0 must not read as "placement picks". A populated
    // ballast region makes MN 0 the most-pressured MN, so a replica
    // left to the placement policy would land on MN 1.
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr ballast =
        client.ralloc(16 * MiB, kPermReadWrite, true).value_or(0);
    ASSERT_NE(ballast, 0u);
    ASSERT_EQ(client.mnFor(ballast), cluster.mn(0).nodeId());
    ASSERT_GT(cluster.mn(0).memoryPressure(),
              cluster.mn(1).memoryPressure());

    ReplicatedRegion region(client, 4 * MiB, cluster.mn(0).nodeId(),
                            cluster.mn(2).nodeId());
    ASSERT_TRUE(region.ok());
    const std::uint64_t mn0_writes = cluster.mn(0).stats().writes;
    std::uint64_t v = 0xFEED;
    ASSERT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_GT(cluster.mn(0).stats().writes, mn0_writes);
    EXPECT_EQ(cluster.mn(1).stats().writes, 0u);
    // The copy on MN 0 serves reads once the backup's MN is gone.
    cluster.crashMn(2);
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xFEEDu);
}

/** A 3-rack cluster, one CN and two MNs per rack, whose client on CN 1
 * keeps a region on MN 1 (rack 0) and MN 4 (rack 2): killing rack 1
 * cuts the CN off from both live replicas. */
struct CutOffCn
{
    explicit CutOffCn(bool health)
        : cluster(config(health), ClusterSpec{3, 1, 2}),
          client(cluster.createClient(1)),
          region(client, 1 * MiB, cluster.mn(1).nodeId(),
                 cluster.mn(4).nodeId())
    {
    }
    static ModelConfig config(bool health)
    {
        auto cfg = ModelConfig::prototype();
        cfg.health.enabled = health;
        return cfg;
    }
    Cluster cluster;
    ClioClient &client;
    ReplicatedRegion region;
};

TEST(Replication, CutOffCnStopsAtTheControllersVerdict)
{
    // Health plane on: the detector declares the cut-off CN dead, and
    // the write stops resending with kTimeout. No replica is marked.
    CutOffCn t(true);
    ASSERT_TRUE(t.region.ok());
    ASSERT_EQ(t.cluster.network().rackOf(t.cluster.cn(1).nodeId()), 1u);
    ASSERT_EQ(t.cluster.rackOfMn(1), 0u);
    ASSERT_EQ(t.cluster.rackOfMn(4), 2u);
    EventQueue &eq = t.cluster.eventQueue();
    const Tick start = eq.now();
    t.cluster.killRack(1);
    std::uint64_t v = 0xD00D;
    EXPECT_EQ(t.region.write(0, &v, 8), Status::kTimeout);
    EXPECT_TRUE(t.cluster.cn(1).declaredDead());
    EXPECT_GE(eq.now(), start + t.cluster.config().health.dead_after);
    EXPECT_TRUE(t.region.primaryAlive());
    EXPECT_TRUE(t.region.backupAlive());
}

TEST(Replication, CutOffCnWaitsOutThePartitionWithoutThePlane)
{
    // Health plane off: nothing declares the CN or the live MNs dead,
    // so the write resends until the rack comes back, then lands.
    CutOffCn t(false);
    ASSERT_TRUE(t.region.ok());
    EventQueue &eq = t.cluster.eventQueue();
    t.cluster.killRack(1);
    const Tick restore = eq.now() + 2 * kMillisecond;
    eq.schedule(restore, [&] { t.cluster.restoreRack(1); });
    std::uint64_t v = 0xD00D;
    EXPECT_EQ(t.region.write(0, &v, 8), Status::kOk);
    EXPECT_GE(eq.now(), restore);
    EXPECT_TRUE(t.region.fullyRedundant());
    t.cluster.crashMn(1); // the backup holds the write too
    std::uint64_t out = 0;
    ASSERT_EQ(t.region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD00Du);
}

} // namespace
} // namespace clio
