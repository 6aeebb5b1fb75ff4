/**
 * @file
 * Tests for the §8 replicated-write primitive: write-all/read-one
 * semantics, replica placement, failover, and degraded operation.
 */

#include <gtest/gtest.h>

#include <cstring>

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

    // "Crash" the primary: wipe this process' state there, so reads
    // against it fail (the failure mode a real MN crash+restart has).
    cluster.mn(0).destroyProcess(client.pid());
    std::uint64_t out = 0;
    ASSERT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xD00Du);
    EXPECT_EQ(region.failovers(), 1u);
    EXPECT_FALSE(region.primaryAlive());

    // Writes continue in degraded mode against the backup.
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

    cluster.eventQueue().scheduleAfter(5 * kMicrosecond,
                                       [&] { cluster.crashMn(0); });
    for (std::uint64_t i = 0; i < 20; i++) {
        std::uint64_t v = 0x5000 + i;
        // Every write still acks: the batch degrades to the backup
        // when the primary leg exhausts its retries.
        ASSERT_EQ(region.write(i * 8, &v, 8), Status::kOk) << i;
    }
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_TRUE(region.backupAlive());
    EXPECT_GE(cluster.cn(0).stats().timeouts, 1u);

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

    cluster.crashMn(0);
    cluster.crashMn(1);

    // First op after the double failure burns real retries on both
    // replicas, then gives up — bounded sim time, never a hang.
    const Tick before = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kRetryExceeded);
    EXPECT_FALSE(region.primaryAlive());
    EXPECT_FALSE(region.backupAlive());
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kRetryExceeded);
    EXPECT_LT(cluster.eventQueue().now() - before, kSecond);

    // Once both replicas are marked dead, further ops fail instantly
    // (no packets, no simulated time).
    const Tick t = cluster.eventQueue().now();
    EXPECT_EQ(region.write(0, &v, 8), Status::kRetryExceeded);
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
    EXPECT_TRUE(region.backupAlive()); // backup untouched since heal
}

TEST(Replication, HealAbortsWhenSurvivorDiesMidCopy)
{
    // Regression: heal() used to return the raw read status when the
    // SOURCE of the copy died mid-stream, leaving the survivor marked
    // alive and the half-copied replacement in limbo. It must abort
    // cleanly: survivor marked dead, kTimeout surfaced, replacement
    // never promoted.
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
    region.markMnDead(cluster.mn(0).nodeId());
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

    // The client notices the crash before the controller's lease runs
    // out; detection then fires while heal() is copying.
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
        ASSERT_EQ(region.write(0, &v, 8), Status::kOk); // mark it dead
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

    // Degraded-mode write: one replica dead → kOk on a single ack,
    // and the dead replica is marked so later writes skip it.
    std::uint64_t v = 7;
    cluster.crashMn(1);
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    EXPECT_FALSE(region.backupAlive());
    const std::uint64_t writes_before = cluster.cn(0).stats().timeouts;
    v = 8;
    EXPECT_EQ(region.write(0, &v, 8), Status::kOk);
    // The second degraded write never retried the dead backup.
    EXPECT_EQ(cluster.cn(0).stats().timeouts, writes_before);

    // Read-one still answers from the surviving primary, without
    // bumping the failover counter.
    std::uint64_t out = 0;
    EXPECT_EQ(region.read(0, &out, 8), Status::kOk);
    EXPECT_EQ(out, 8u);
    EXPECT_EQ(region.failovers(), 0u);
}

} // namespace
} // namespace clio
