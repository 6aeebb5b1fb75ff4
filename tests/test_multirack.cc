/**
 * @file
 * Multi-rack fabric + shard map tests: leaf/spine timing, aggregation
 * contention, consistent-hash placement stability, and rack-aware
 * sharded clusters end to end.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/shard_map.hh"
#include "net/network.hh"

namespace clio {
namespace {

NetConfig
quietNet()
{
    NetConfig cfg;
    cfg.switch_jitter_mean = 0; // deterministic timing tests
    return cfg;
}

Packet
makePacket(NodeId src, NodeId dst, std::uint32_t wire_bytes,
           ReqId id = 1)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.req_id = id;
    pkt.wire_bytes = wire_bytes;
    return pkt;
}

TEST(MultiRack, CrossRackCostsTheAggregationHops)
{
    EventQueue eq;
    auto cfg = quietNet();
    Network net(eq, cfg, 1);
    NodeId src = net.addNode(nullptr, 0);
    NodeId same = net.addNode([](Packet) {}, 0);
    NodeId other = net.addNode([](Packet) {}, 1);

    Tick intra_at = 0, cross_at = 0;
    net.send(makePacket(src, same, 1000, 1));
    eq.runAll();
    intra_at = eq.now();
    const Tick t0 = eq.now();
    net.send(makePacket(src, other, 1000, 2));
    eq.runAll();
    cross_at = eq.now() - t0;

    // Exact single-packet timings on an idle fabric.
    const Tick ser = 1000 * ticksPerByte(cfg.link_bandwidth_bps);
    const Tick agg_ser = 1000 * ticksPerByte(cfg.agg_bandwidth_bps);
    const Tick intra_expected = 2 * ser + 2 * cfg.link_propagation +
                                cfg.switch_latency;
    // A cross-rack packet traverses three switches (source ToR, spine,
    // destination ToR) instead of one, plus the two aggregation links.
    const Tick cross_expected =
        intra_expected + 2 * agg_ser + 2 * cfg.agg_link_propagation +
        cfg.switch_latency + cfg.spine_latency;
    EXPECT_EQ(intra_at, intra_expected);
    EXPECT_EQ(cross_at, cross_expected);
    EXPECT_GT(cross_at, intra_at);
    EXPECT_EQ(net.stats().cross_rack, 1u);
}

TEST(MultiRack, AggregationLinkSerializesCrossRackBursts)
{
    // Same incast, intra-rack vs cross-rack, with the uplink pinned
    // to host-link speed: the shared aggregation link must stretch
    // the cross-rack completion beyond the intra-rack one.
    auto run = [](bool cross) {
        EventQueue eq;
        auto cfg = quietNet();
        cfg.agg_bandwidth_bps = cfg.link_bandwidth_bps;
        Network net(eq, cfg, 1);
        NodeId a = net.addNode(nullptr, 0);
        NodeId b = net.addNode(nullptr, 0);
        net.addNode([](Packet) {}, 0); // keep ids comparable
        NodeId dst = net.addNode([](Packet) {}, cross ? 1 : 0);
        for (int i = 0; i < 20; i++) {
            net.send(makePacket(a, dst, 1500, ReqId(2 * i + 1)));
            net.send(makePacket(b, dst, 1500, ReqId(2 * i + 2)));
        }
        eq.runAll();
        return eq.now();
    };
    const Tick intra_done = run(false);
    const Tick cross_done = run(true);
    EXPECT_GT(cross_done, intra_done);
}

/** 4 rack-0 senders x 25 MTU packets into one rack-1 node, through
 * 2-packet aggregation queues. */
NetStats
aggregationIncast(NetConfig cfg)
{
    EventQueue eq;
    cfg.agg_queue_packets = 2;
    Network net(eq, cfg, 1);
    std::vector<NodeId> srcs;
    for (int k = 0; k < 4; k++)
        srcs.push_back(net.addNode(nullptr, 0));
    NodeId dst = net.addNode([](Packet) {}, 1);
    ReqId id = 1;
    for (int i = 0; i < 25; i++) {
        for (NodeId s : srcs)
            net.send(makePacket(s, dst, 1500, id++));
    }
    eq.runAll();
    return net.stats();
}

TEST(MultiRack, LossyAggregationQueueTailDrops)
{
    auto cfg = quietNet();
    cfg.lossless = false;
    cfg.agg_bandwidth_bps = cfg.link_bandwidth_bps / 10;
    const NetStats st = aggregationIncast(cfg);
    EXPECT_GT(st.dropped_agg_queue, 0u);
    EXPECT_EQ(st.delivered + st.dropped_agg_queue, st.sent);
}

TEST(MultiRack, LosslessAggregationQueueBackPressures)
{
    // Lossless, with the uplink at host-link speed: a full uplink queue
    // holds senders at their NICs instead of dropping.
    auto cfg = quietNet();
    cfg.lossless = true;
    cfg.agg_bandwidth_bps = cfg.link_bandwidth_bps;
    const NetStats st = aggregationIncast(cfg);
    EXPECT_GT(st.pfc_stalls, 0u);
    EXPECT_EQ(st.dropped_agg_queue, 0u);
    EXPECT_EQ(st.delivered, 100u);
}

TEST(MultiRack, RackDownOfARackWithNoNodeIsANoOp)
{
    // Neither a huge rack id nor one whose `rack + 1` wraps to 0 may
    // resize the rack table; rack-0 traffic stays at idle latency.
    EventQueue eq;
    auto cfg = quietNet();
    Network net(eq, cfg, 1);
    NodeId a = net.addNode(nullptr, 0);
    Tick delivered_at = 0;
    NodeId b = net.addNode([&](Packet) { delivered_at = eq.now(); }, 0);
    net.setRackDown(0xFFFFFFFF, true);
    net.setRackDown(100000, true);
    net.send(makePacket(a, b, 1000));
    eq.runAll();
    const Tick ser = 1000 * ticksPerByte(cfg.link_bandwidth_bps);
    EXPECT_EQ(delivered_at,
              2 * ser + 2 * cfg.link_propagation + cfg.switch_latency);
    EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(ShardMap, RackAwareOwnerStaysLocalWheneverPossible)
{
    ShardMap map;
    for (std::uint32_t mn = 0; mn < 8; mn++)
        map.addMn(mn, mn / 2); // 4 racks x 2 MNs
    for (RackId rack = 0; rack < 4; rack++) {
        for (ProcId pid = 1; pid <= 200; pid++) {
            const std::uint32_t mn = map.ownerNear(pid, 0, rack);
            EXPECT_EQ(map.rackOf(mn), rack);
            // Deterministic: same key, same answer.
            EXPECT_EQ(map.ownerNear(pid, 0, rack), mn);
        }
    }
    // A rack with no MNs falls back to some remote owner.
    const std::uint32_t remote = map.ownerNear(7, 0, 9);
    EXPECT_LT(remote, 8u);
}

TEST(ShardMap, PlacementsAreStableUnderMnChurn)
{
    ShardMap map;
    for (std::uint32_t mn = 0; mn < 8; mn++)
        map.addMn(mn, mn / 2);

    std::map<std::pair<ProcId, std::uint64_t>, std::uint32_t> before;
    for (ProcId pid = 1; pid <= 100; pid++) {
        for (std::uint64_t region = 0; region < 10; region++)
            before[{pid, region}] = map.ownerOf(pid, region);
    }

    // Adding one MN moves only ~1/(M+1) of the keyspace.
    map.addMn(8, 0);
    std::size_t moved = 0;
    for (const auto &[key, owner] : before) {
        if (map.ownerOf(key.first, key.second) != owner)
            moved++;
    }
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, before.size() / 3);

    // Removing it restores every original placement exactly (ring
    // points depend only on (mn, replica)).
    map.removeMn(8);
    for (const auto &[key, owner] : before)
        EXPECT_EQ(map.ownerOf(key.first, key.second), owner);
}

TEST(MultiRack, ShardedClusterPlacesProcessesRackLocally)
{
    auto cfg = ModelConfig::prototype();
    ClusterSpec spec;
    spec.racks = 3;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 2;
    Cluster cluster(cfg, spec);
    ASSERT_EQ(cluster.cnCount(), 3u);
    ASSERT_EQ(cluster.mnCount(), 6u);

    for (std::uint32_t cn = 0; cn < 3; cn++) {
        ClioClient &client = cluster.createClient(cn);
        const std::uint32_t home = cluster.homeMnOf(client.pid());
        const RackId cn_rack =
            cluster.network().rackOf(cluster.cn(cn).nodeId());
        EXPECT_EQ(cluster.network().rackOf(cluster.mn(home).nodeId()),
                  cn_rack);
        // The data path works end to end through the home MN.
        const VirtAddr a = client.ralloc(1 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        std::uint64_t w = 0x1234567890abcdefull + cn, r = 0;
        ASSERT_EQ(client.rwrite(a, &w, 8), Status::kOk);
        ASSERT_EQ(client.rread(a, &r, 8), Status::kOk);
        EXPECT_EQ(r, w);
    }
    // Rack-local placement means no measured op crossed the spine.
    EXPECT_EQ(cluster.network().stats().cross_rack, 0u);
}

TEST(MultiRack, SharedClientReadsAcrossTheSpine)
{
    auto cfg = ModelConfig::prototype();
    ClusterSpec spec;
    spec.racks = 2;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);

    ClioClient &owner = cluster.createClient(0);
    const VirtAddr a = owner.ralloc(1 * MiB).value_or(0);
    std::uint64_t w = 0xfeedfacecafef00dull;
    ASSERT_EQ(owner.rwrite(a, &w, 8), Status::kOk);

    // A process on the other rack attaches to the same RAS; its reads
    // must traverse the aggregation links and still return the data.
    ClioClient &peer = cluster.createSharedClient(1, owner);
    std::uint64_t r = 0;
    ASSERT_EQ(peer.rread(a, &r, 8), Status::kOk);
    EXPECT_EQ(r, w);
    EXPECT_GT(cluster.network().stats().cross_rack, 0u);
}

TEST(MultiRack, MigrationCreatesAnOwnershipException)
{
    auto cfg = ModelConfig::prototype();
    ClusterSpec spec;
    spec.racks = 2;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    Cluster cluster(cfg, spec);

    ClioClient &client = cluster.createClient(0);
    const VirtAddr a = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t w = 0xa5a5a5a5a5a5a5a5ull;
    ASSERT_EQ(client.rwrite(a, &w, 8), Status::kOk);

    const std::uint32_t home = cluster.homeMnOf(client.pid());
    auto report = cluster.migrateRegion(client.pid(), home);
    ASSERT_TRUE(report.ok);
    EXPECT_NE(report.dst_mn, home);
    EXPECT_GT(report.pages_moved, 0u);

    // Data survives the migration and is now served by the new MN.
    std::uint64_t r = 0;
    ASSERT_EQ(client.rread(a, &r, 8), Status::kOk);
    EXPECT_EQ(r, w);
    EXPECT_EQ(client.mnFor(a), cluster.mn(report.dst_mn).nodeId());
}

} // namespace
} // namespace clio
