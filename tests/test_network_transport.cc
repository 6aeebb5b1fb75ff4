/**
 * @file
 * Unit tests for the network model, MTU splitting and the CN transport
 * (CNode).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "clib/cnode.hh"
#include "cluster/cluster.hh"
#include "net/network.hh"
#include "proto/wire.hh"
#include "sim/rng.hh"

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

TEST(Network, DeliversWithFixedLatency)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    Tick delivered_at = 0;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet) { delivered_at = eq.now(); });

    net.send(makePacket(a, b, 100));
    eq.runAll();
    // serialization (2 stages) + 2 props + switch.
    const Tick ser = 100 * ticksPerByte(quietNet().link_bandwidth_bps);
    const Tick expected = 2 * ser + 2 * quietNet().link_propagation +
                          quietNet().switch_latency;
    EXPECT_EQ(delivered_at, expected);
    EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(Network, EgressSerializationQueues)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    std::vector<Tick> arrivals;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet) { arrivals.push_back(eq.now()); });

    // Two back-to-back packets: the second waits for the first's
    // serialization on the source link.
    net.send(makePacket(a, b, 1500, 1));
    net.send(makePacket(a, b, 1500, 2));
    eq.runAll();
    ASSERT_EQ(arrivals.size(), 2u);
    const Tick ser = 1500 * ticksPerByte(quietNet().link_bandwidth_bps);
    EXPECT_EQ(arrivals[1] - arrivals[0], ser);
}

TEST(Network, LossAndCorruptionStatistics)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.loss_rate = 0.3;
    cfg.corrupt_rate = 0.2;
    Network net(eq, cfg, 7);
    int received = 0, corrupted = 0;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet pkt) {
        received++;
        corrupted += pkt.corrupted ? 1 : 0;
    });
    for (int i = 0; i < 2000; i++)
        net.send(makePacket(a, b, 100, static_cast<ReqId>(i)));
    eq.runAll();
    EXPECT_NEAR(net.stats().dropped_random, 600, 80);
    EXPECT_EQ(received, 2000 - static_cast<int>(
                                   net.stats().dropped_random));
    EXPECT_NEAR(corrupted, 0.2 * received, 80);
}

TEST(Network, SwitchEgressBacklogVisible)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([](Packet) {});
    for (int i = 0; i < 10; i++)
        net.send(makePacket(a, b, 1500, static_cast<ReqId>(i)));
    EXPECT_GT(net.switchEgressBacklog(b), 0u);
    eq.runAll();
    EXPECT_EQ(net.switchEgressBacklog(b), 0u);
}

// Regression: a queue slot is freed when the packet's last byte
// leaves the switch output port (out_done), NOT at delivery. The old
// accounting held the slot through the final link propagation plus
// the (here: huge) reorder delay, so a paced stream far below the
// port rate still tail-dropped on a small queue.
TEST(Network, QueueSlotFreedAtEgressNotAtDelivery)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.lossless = false;
    cfg.switch_queue_packets = 2;
    cfg.reorder_rate = 1.0; // every delivery delayed way past out_done
    cfg.reorder_delay = 500 * kMicrosecond;
    Network net(eq, cfg, 1);
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([](Packet) {});

    // One packet every 5 us: an out_done-accounted queue is empty at
    // each send (egress takes ~2.7 us), a delivery-accounted one
    // holds ~100 phantom packets and drops nearly everything.
    for (int i = 0; i < 50; i++) {
        const Tick at = static_cast<Tick>(i) * 5 * kMicrosecond;
        eq.schedule(at, [&net, a, b, i] {
            net.send(makePacket(a, b, 1500, static_cast<ReqId>(i + 1)));
        });
    }
    eq.runAll();
    EXPECT_EQ(net.stats().dropped_queue, 0u);
    EXPECT_EQ(net.stats().delivered, 50u);
    EXPECT_EQ(net.stats().reordered, 50u);
}

// Regression: lossless mode is bounded-queue back-pressure, not
// "skip the drop and let the queue grow". A 4-into-1 incast on a
// 4-packet queue must (a) stall senders, (b) never exceed the queue
// bound, (c) still deliver every packet.
TEST(Network, LosslessBackPressureBoundsQueue)
{
    EventQueue eq;
    auto cfg = quietNet();
    cfg.lossless = true;
    cfg.switch_queue_packets = 4;
    Network net(eq, cfg, 1);
    std::vector<NodeId> srcs;
    for (int k = 0; k < 4; k++)
        srcs.push_back(net.addNode(nullptr));
    NodeId dst = net.addNode([](Packet) {});

    ReqId id = 1;
    for (int k = 0; k < 4; k++) {
        for (int i = 0; i < 25; i++)
            net.send(makePacket(srcs[k], dst, 1500, id++));
    }
    eq.runAll();
    EXPECT_EQ(net.stats().sent, 100u);
    EXPECT_EQ(net.stats().delivered, 100u);
    EXPECT_EQ(net.stats().dropped_queue, 0u);
    EXPECT_GT(net.stats().pfc_stalls, 0u);
    EXPECT_GT(net.stats().pfc_stall_ticks, 0u);
    EXPECT_LE(net.stats().peak_queue_depth, 4u);
}

/** Idle-fabric latency of a `bytes`-long rack-to-rack packet. */
Tick
idleCrossRackLatency(const NetConfig &cfg, std::uint32_t bytes)
{
    const Tick ser = bytes * ticksPerByte(cfg.link_bandwidth_bps);
    const Tick agg_ser = bytes * ticksPerByte(cfg.agg_bandwidth_bps);
    return 2 * ser + 2 * agg_ser + 2 * cfg.link_propagation +
           2 * cfg.agg_link_propagation + 2 * cfg.switch_latency +
           cfg.spine_latency;
}

/**
 * Extra latency of a 1000 B probe from `probe_rack` into rack 1, sent
 * at the same tick as a 1000 B rack 0 -> rack 1 packet that the fault
 * hook drops at hop `drop_at` (1-based; 0 = never). The probe queues
 * behind whichever of its hops the dropped packet had already booked.
 */
Tick
probeDelay(int drop_at, RackId probe_rack, NetStats *stats = nullptr)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    NodeId src = net.addNode(nullptr, 0);
    NodeId probe_src = net.addNode(nullptr, probe_rack);
    Tick probe_at = 0;
    NodeId dst = net.addNode([&](Packet pkt) {
        if (pkt.req_id == 2)
            probe_at = eq.now();
    }, 1);
    int hop = 0;
    net.setFaultHook([&](const Packet &pkt) {
        FaultVerdict v;
        v.drop = pkt.req_id == 1 && ++hop == drop_at;
        return v;
    });
    net.send(makePacket(src, dst, 1000, 1));
    net.send(makePacket(probe_src, dst, 1000, 2));
    eq.runAll();
    if (stats)
        *stats = net.stats();
    return probe_at - idleCrossRackLatency(quietNet(), 1000);
}

TEST(Network, FaultHookRunsOncePerHopInPathOrder)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    NodeId a = net.addNode(nullptr, 0);
    NodeId same = net.addNode([](Packet) {}, 0);
    NodeId other = net.addNode([](Packet) {}, 1);
    int calls = 0;
    net.setFaultHook([&](const Packet &) {
        calls++;
        return FaultVerdict{};
    });
    net.send(makePacket(a, other, 1000, 1));
    EXPECT_EQ(calls, 3);
    net.send(makePacket(a, same, 1000, 2));
    EXPECT_EQ(calls, 4);
    eq.runAll();
    EXPECT_EQ(net.stats().delivered, 2u);

    // A drop at the first hop ends the walk before any queue is booked.
    NetStats stats;
    EXPECT_EQ(probeDelay(1, 0, &stats), 0u);
    EXPECT_EQ(stats.dropped_fault, 1u);
    EXPECT_EQ(stats.delivered, 1u);

    // Path order: the rack uplink (shared only with a rack-0 probe),
    // then the spine downlink (shared with a rack-2 probe too), then
    // the destination ToR port, whose host-speed serialization the
    // probe waits out only when the packet got all the way through.
    const Tick ser = 1000 * ticksPerByte(quietNet().link_bandwidth_bps);
    const Tick agg_ser = 1000 * ticksPerByte(quietNet().agg_bandwidth_bps);
    EXPECT_EQ(probeDelay(1, 2), 0u);
    EXPECT_EQ(probeDelay(2, 0), agg_ser);
    EXPECT_EQ(probeDelay(2, 2), 0u);
    EXPECT_EQ(probeDelay(3, 0), agg_ser);
    EXPECT_EQ(probeDelay(3, 2), agg_ser);
    EXPECT_EQ(probeDelay(0, 0), ser);
    EXPECT_EQ(probeDelay(0, 2), ser);
}

// A heartbeat sent behind a bulk backlog neither waits for nor books
// any queue on its cross-rack path: it arrives at idle-fabric latency,
// and the data packet sent after it lands as if it had never existed.
TEST(Network, PriorityPacketBypassesEveryHopQueue)
{
    const NetConfig cfg = quietNet();
    Tick prio_at = 0;
    const auto run = [&](bool with_prio) {
        EventQueue eq;
        Network net(eq, cfg, 1);
        NodeId a = net.addNode(nullptr, 0);
        Tick data_at = 0;
        NodeId b = net.addNode([&](Packet pkt) {
            if (pkt.priority)
                prio_at = eq.now();
            else
                data_at = eq.now();
        }, 1);
        for (ReqId id = 1; id <= 8; id++)
            net.send(makePacket(a, b, 1500, id));
        if (with_prio) {
            Packet hb = makePacket(a, b, 100, 100);
            hb.priority = true;
            net.send(hb);
        }
        net.send(makePacket(a, b, 1500, 9));
        eq.runAll();
        EXPECT_EQ(net.stats().priority_bypass, with_prio ? 1u : 0u);
        return data_at;
    };
    const Tick without = run(false);
    EXPECT_EQ(run(true), without);
    EXPECT_EQ(prio_at, idleCrossRackLatency(cfg, 100));
}

TEST(Wire, PacketCountMatchesMtu)
{
    const std::uint32_t mtu = 1500;
    const std::uint32_t payload_per = mtu - kPacketHeaderBytes;
    EXPECT_EQ(packetCount(0, mtu), 1u);
    EXPECT_EQ(packetCount(1, mtu), 1u);
    EXPECT_EQ(packetCount(payload_per, mtu), 1u);
    EXPECT_EQ(packetCount(payload_per + 1, mtu), 2u);
    EXPECT_EQ(packetCount(10 * payload_per, mtu), 10u);
}

TEST(Wire, SplitCoversPayloadExactly)
{
    EventQueue eq;
    Network net(eq, quietNet(), 1);
    std::vector<Packet> got;
    NodeId a = net.addNode(nullptr);
    NodeId b = net.addNode([&](Packet pkt) { got.push_back(pkt); });

    auto msg = std::make_shared<RequestMsg>();
    const std::uint64_t payload = 5000;
    sendSplit(eq, net, 0, a, b, 42, MsgType::kWrite, payload, msg);
    eq.runAll();
    ASSERT_EQ(got.size(), packetCount(payload, quietNet().mtu));
    std::uint64_t covered = 0;
    for (const auto &pkt : got) {
        EXPECT_EQ(pkt.req_id, 42u);
        EXPECT_EQ(pkt.total_parts, got.size());
        EXPECT_EQ(pkt.payload_offset, covered);
        covered += pkt.payload_len;
    }
    EXPECT_EQ(covered, payload);
}

TEST(Wire, PartTrackerSpillsPastSixtyFourParts)
{
    using V = PartTracker::Verdict;
    PartTracker parts;
    const std::uint32_t total = 150;
    // Odd parts first, high to low, so the spill words fill before the
    // inline word is complete.
    for (std::uint32_t p = total - 1; p < total; p -= 2)
        ASSERT_EQ(parts.add(p, total), V::kNew) << p;
    EXPECT_EQ(parts.add(149, total), V::kDuplicate);
    EXPECT_EQ(parts.add(65, total), V::kDuplicate);
    EXPECT_EQ(parts.add(150, total), V::kMalformed);  // past the count
    EXPECT_EQ(parts.add(100, 151), V::kMalformed);    // count disagrees
    EXPECT_EQ(parts.add(100, 100), V::kMalformed);    // both
    for (std::uint32_t p = 0; p < total; p += 2) {
        EXPECT_FALSE(parts.complete());
        ASSERT_EQ(parts.add(p, total), V::kNew) << p;
    }
    EXPECT_TRUE(parts.complete());
    EXPECT_EQ(parts.add(128, total), V::kDuplicate);
    EXPECT_EQ(parts.add(0, total), V::kDuplicate);

    // Reused for a one-part message: nothing of the old one lingers.
    parts.reset();
    EXPECT_FALSE(parts.complete());
    EXPECT_EQ(parts.add(1, 1), V::kMalformed);
    EXPECT_EQ(parts.add(0, 1), V::kNew);
    EXPECT_TRUE(parts.complete());
    EXPECT_EQ(parts.add(0, 1), V::kDuplicate);
    EXPECT_EQ(parts.add(0, 150), V::kMalformed);
}

TEST(CNode, RetryGetsFreshIdKeepsOriginal)
{
    // Total loss for the first attempt; capture ids at the MN.
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = 1.0;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto handle = client.rreadAsync(4 * MiB, nullptr, 8);
    // Drain: every attempt is lost; request eventually fails.
    cluster.run();
    EXPECT_TRUE(handle->done);
    // Every failure on the way out was a timeout (total loss), so the
    // exhausted request surfaces kTimeout, not kRetryExceeded.
    EXPECT_EQ(handle->status, Status::kTimeout);
    EXPECT_EQ(cluster.cn(0).stats().retries, cfg.clib.max_retries);
    EXPECT_EQ(cluster.cn(0).stats().timeouts, cfg.clib.max_retries + 1);
}

TEST(CNode, CwndGrowsOnGoodRtt)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const NodeId mn = cluster.mn(0).nodeId();
    const double before = cluster.cn(0).cwnd(mn);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 0;
    for (int i = 0; i < 50; i++)
        client.rread(addr, &v, 8);
    EXPECT_GT(cluster.cn(0).cwnd(mn), before);
}

TEST(CNode, RttHistogramPopulated)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    for (int i = 0; i < 20; i++)
        client.rwrite(addr, &v, 8);
    EXPECT_GE(cluster.cn(0).rttHistogram().count(), 20u);
    EXPECT_GT(cluster.cn(0).rttHistogram().median(), kMicrosecond);
}

TEST(CNode, FinishedRequestsLeaveNoEventPending)
{
    // Each request arms a timeout (200 ms for an alloc); answered
    // requests must cancel theirs rather than leave it queued.
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();
    const std::size_t idle = eq.pending();
    constexpr int kOps = 16;
    for (int i = 0; i < kOps; i++) {
        const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
        ASSERT_NE(addr, 0u);
        std::uint64_t v = static_cast<std::uint64_t>(i);
        ASSERT_EQ(client.rwrite(addr, &v, 8), Status::kOk);
        ASSERT_EQ(client.rread(addr, &v, 8), Status::kOk);
    }
    EXPECT_EQ(eq.pending(), idle);
}

TEST(CNode, CrashDuringBackoffLeavesNoRetransmitPending)
{
    // Every packet is lost, so the first attempt times out and its
    // retry waits out a backoff; the CN crashes inside that window.
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = 1.0;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    EventQueue &eq = cluster.eventQueue();
    const std::size_t idle = eq.pending();
    CNode &cn = cluster.cn(0);
    auto handle = client.rreadAsync(4 * MiB, nullptr, 8);
    ASSERT_TRUE(eq.runUntil([&] { return cn.stats().timeouts == 1; }));
    ASSERT_GT(cfg.clib.retry_backoff, 0u);
    const std::uint64_t retries = cn.stats().retries;
    EXPECT_EQ(retries, 1u);
    cluster.crashCn(0);
    ASSERT_TRUE(eq.runUntil([&] { return handle->done; }));
    EXPECT_EQ(handle->status, Status::kTimeout);
    // The retransmit was cancelled with the request, not left to fire.
    EXPECT_EQ(eq.pending(), idle);
    eq.runAll();
    EXPECT_EQ(cn.stats().retries, retries);
    EXPECT_EQ(cn.stats().timeouts, 1u);
}

} // namespace
} // namespace clio
