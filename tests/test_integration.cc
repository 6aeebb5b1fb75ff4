/**
 * @file
 * End-to-end integration tests: CLib -> transport -> network -> CBoard
 * fast/slow path and back, exercising the paper's correctness
 * guarantees (T1-T4), page faults, permissions, and latency sanity.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

ModelConfig
baseConfig()
{
    return ModelConfig::prototype();
}

TEST(Integration, AllocWriteReadRoundTrip)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);

    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<std::uint8_t>(i * 13 + 7);

    EXPECT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);

    std::vector<std::uint8_t> out(4096, 0);
    EXPECT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
}

TEST(Integration, ByteGranularityAccess)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    // Single-byte writes at odd offsets (R1: byte granularity).
    const std::uint8_t b1 = 0xAA, b2 = 0x55;
    EXPECT_EQ(client.rwrite(addr + 3, &b1, 1), Status::kOk);
    EXPECT_EQ(client.rwrite(addr + 4, &b2, 1), Status::kOk);
    std::uint8_t out[2] = {};
    EXPECT_EQ(client.rread(addr + 3, out, 2), Status::kOk);
    EXPECT_EQ(out[0], b1);
    EXPECT_EQ(out[1], b2);
}

TEST(Integration, FirstTouchPageFaultsCounted)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0); // 4 pages
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 0u);

    std::uint64_t v = 1;
    // Touch each page once -> one fault each; second touches -> none.
    for (int p = 0; p < 4; p++)
        client.rwrite(addr + p * 4 * MiB, &v, sizeof(v));
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 4u);
    for (int p = 0; p < 4; p++)
        client.rwrite(addr + p * 4 * MiB + 8, &v, sizeof(v));
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 4u);
}

TEST(Integration, UnallocatedAddressRejected)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    std::uint64_t v = 0;
    EXPECT_EQ(client.rread(123 * MiB, &v, sizeof(v)),
              Status::kBadAddress);
    EXPECT_GE(cluster.mn(0).stats().bad_address, 1u);
}

TEST(Integration, PermissionEnforced)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr ro = client.ralloc(4 * MiB, kPermRead).value_or(0);
    ASSERT_NE(ro, 0u);
    std::uint64_t v = 7;
    EXPECT_EQ(client.rwrite(ro, &v, sizeof(v)), Status::kPermDenied);
    // Read of a never-written read-only page returns zeros.
    EXPECT_EQ(client.rread(ro, &v, sizeof(v)), Status::kOk);
    EXPECT_EQ(v, 0u);
    EXPECT_GE(cluster.mn(0).stats().perm_denied, 1u);
}

TEST(Integration, ProcessIsolation)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &alice = cluster.createClient(0);
    ClioClient &bob = cluster.createClient(0);

    const VirtAddr a = alice.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(a, 0u);
    std::uint64_t secret = 0xC0FFEE;
    ASSERT_EQ(alice.rwrite(a, &secret, sizeof(secret)), Status::kOk);

    // Bob cannot touch Alice's VA: it is unallocated in *his* RAS
    // (same numeric address, different address space, R5).
    std::uint64_t stolen = 0;
    EXPECT_EQ(bob.rread(a, &stolen, sizeof(stolen)),
              Status::kBadAddress);

    // And Bob allocating the same numeric VA sees his own data only.
    const VirtAddr b = bob.ralloc(4 * MiB).value_or(0);
    EXPECT_EQ(b, a); // separate RASs may hand out the same VA
    std::uint64_t bv = 0;
    EXPECT_EQ(bob.rread(b, &bv, sizeof(bv)), Status::kOk);
    EXPECT_EQ(bv, 0u);
    std::uint64_t av = 0;
    EXPECT_EQ(alice.rread(a, &av, sizeof(av)), Status::kOk);
    EXPECT_EQ(av, secret);
}

TEST(Integration, FreeThenAccessFails)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 9;
    ASSERT_EQ(client.rwrite(addr, &v, sizeof(v)), Status::kOk);
    ASSERT_EQ(client.rfree(addr), Status::kOk);
    EXPECT_EQ(client.rread(addr, &v, sizeof(v)), Status::kBadAddress);
    // Frames were reclaimed: a fresh allocation reuses them and the
    // fault handler zero-binds, so old data never leaks.
    const VirtAddr addr2 = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t leak = 1;
    EXPECT_EQ(client.rread(addr2, &leak, sizeof(leak)), Status::kOk);
    EXPECT_EQ(leak, 0u);
}

TEST(Integration, LargeMultiPacketWrite)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    // 64 KB write -> dozens of MTU packets (T1 split/reassembly).
    std::vector<std::uint8_t> data(64 * KiB);
    Rng rng(3);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);

    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
}

TEST(Integration, CrossPageAccess)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0); // 2 pages
    // Write straddling the 4 MB page boundary.
    std::vector<std::uint8_t> data(8192, 0xEE);
    const VirtAddr at = addr + 4 * MiB - 4096;
    ASSERT_EQ(client.rwrite(at, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(8192);
    ASSERT_EQ(client.rread(at, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 2u);
}

TEST(Integration, AsyncDependentOrdering)
{
    // T2: WAW to the same page must execute in order even when issued
    // asynchronously back to back.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t v1 = 111, v2 = 222, v3 = 333;
    auto h1 = client.rwriteAsync(addr, &v1, sizeof(v1));
    auto h2 = client.rwriteAsync(addr, &v2, sizeof(v2));
    auto h3 = client.rwriteAsync(addr, &v3, sizeof(v3));
    EXPECT_GE(client.stats().ordering_stalls, 2u);
    ASSERT_TRUE(client.rpoll({h1, h2, h3}));

    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, sizeof(out)), Status::kOk);
    EXPECT_EQ(out, v3); // program order preserved
}

TEST(Integration, AsyncIndependentParallel)
{
    // Independent pages may be outstanding concurrently (no stalls).
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(32 * MiB).value_or(0); // 8 pages

    std::vector<HandlePtr> handles;
    std::vector<std::uint64_t> vals(8);
    for (int p = 0; p < 8; p++) {
        vals[static_cast<std::size_t>(p)] = 1000 + p;
        handles.push_back(client.rwriteAsync(
            addr + p * 4 * MiB, &vals[static_cast<std::size_t>(p)],
            sizeof(std::uint64_t)));
    }
    EXPECT_EQ(client.stats().ordering_stalls, 0u);
    ASSERT_TRUE(client.rpoll(handles));
    for (int p = 0; p < 8; p++) {
        std::uint64_t out = 0;
        client.rread(addr + p * 4 * MiB, &out, sizeof(out));
        EXPECT_EQ(out, vals[static_cast<std::size_t>(p)]);
    }
}

TEST(Integration, RawDependencyReadSeesWrite)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 0xDADA;
    std::uint64_t out = 0;
    auto hw = client.rwriteAsync(addr, &v, sizeof(v));
    auto hr = client.rreadAsync(addr, &out, sizeof(out)); // RAW: queued
    ASSERT_TRUE(client.rpoll({hw, hr}));
    EXPECT_EQ(out, v);
}

TEST(Integration, ReleaseWaitsForAll)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    std::uint64_t v = 5;
    for (int i = 0; i < 4; i++)
        client.rwriteAsync(addr + i * 4 * MiB, &v, sizeof(v));
    EXPECT_GT(client.outstanding(), 0u);
    client.rrelease();
    EXPECT_EQ(client.outstanding(), 0u);
}

TEST(Integration, AtomicsSemantics)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    // FAA from 0.
    auto old1 = client.rfaa(addr, 5);
    ASSERT_TRUE(old1.ok());
    EXPECT_EQ(*old1, 0u);
    auto old2 = client.rfaa(addr, 3);
    EXPECT_EQ(*old2, 5u);

    // CAS success and failure.
    auto h = client.atomicAsync(addr, AtomicOp::kCompareSwap, 8, 100);
    ASSERT_TRUE(client.rpoll(h));
    EXPECT_EQ(h->value, 8u); // old value, matched -> swapped
    std::uint64_t now_val = 0;
    client.rread(addr, &now_val, sizeof(now_val));
    EXPECT_EQ(now_val, 100u);

    h = client.atomicAsync(addr, AtomicOp::kCompareSwap, 8, 999);
    ASSERT_TRUE(client.rpoll(h));
    EXPECT_EQ(h->value, 100u); // mismatch -> no swap
    client.rread(addr, &now_val, sizeof(now_val));
    EXPECT_EQ(now_val, 100u);
}

TEST(Integration, LockMutualExclusion)
{
    Cluster cluster(baseConfig(), 2, 1);
    ClioClient &c1 = cluster.createClient(0);
    ClioClient &c2 = cluster.createClient(1);

    const VirtAddr lock = c1.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(lock, 0u);
    // c2 shares the RAS in spirit: for this test both use c1's pid via
    // the same lock VA in c1's space -- instead, c2 gets its own lock
    // word and we exercise acquire/release semantics per client.
    ASSERT_TRUE(c1.rlock(lock));
    // Lock is held: a bounded re-acquire attempt must fail...
    EXPECT_FALSE(c1.rlock(lock, 3));
    // ...until released.
    c1.runlock(lock);
    EXPECT_TRUE(c1.rlock(lock, 3));
    c1.runlock(lock);
    (void)c2;
}

TEST(Integration, FenceCompletes)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwriteAsync(addr, &v, sizeof(v));
    EXPECT_EQ(client.rfence(), Status::kOk);
    EXPECT_EQ(cluster.mn(0).stats().fences, 1u);
    std::uint64_t out = 0;
    client.rread(addr, &out, sizeof(out));
    EXPECT_EQ(out, 1u);
}

TEST(Integration, LossyNetworkDataIntegrity)
{
    // T4 + request-level retry: with 10% packet loss, every operation
    // still completes correctly (retries with fresh ids).
    auto cfg = baseConfig();
    cfg.net.loss_rate = 0.10;
    // 10% loss is far beyond what PFC-backed deployments see; give
    // the transport enough retries that no op is surfaced as failed.
    cfg.clib.max_retries = 8;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    Rng rng(77);
    std::vector<std::uint64_t> mirror(256, 0);
    for (int i = 0; i < 256; i++) {
        const std::uint64_t value = rng.next();
        mirror[static_cast<std::size_t>(i)] = value;
        ASSERT_EQ(client.rwrite(addr + i * 64, &value, sizeof(value)),
                  Status::kOk);
    }
    for (int i = 0; i < 256; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addr + i * 64, &out, sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, mirror[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(cluster.cn(0).stats().retries, 0u);
}

TEST(Integration, CorruptionTriggersNackAndRetry)
{
    auto cfg = baseConfig();
    cfg.net.corrupt_rate = 0.08;
    cfg.clib.max_retries = 8;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    std::vector<std::uint8_t> data(8 * KiB);
    Rng rng(5);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (int i = 0; i < 30; i++) {
        ASSERT_EQ(client.rwrite(addr + i * 8 * KiB % (4 * MiB),
                                data.data(), data.size()),
                  Status::kOk);
    }
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    // Corruption was detected somewhere (request NACK or response
    // retry).
    EXPECT_GT(cluster.cn(0).stats().nacks + cluster.cn(0).stats().retries,
              0u);
}

TEST(Integration, ReorderedPacketsPlacedCorrectly)
{
    // T1: out-of-order data placement within multi-packet writes.
    auto cfg = baseConfig();
    cfg.net.reorder_rate = 0.3;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    std::vector<std::uint8_t> data(32 * KiB);
    Rng rng(9);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    EXPECT_GT(cluster.network().stats().reordered, 0u);
}

TEST(Integration, DedupSuppressesReplayedWrite)
{
    // T4: a retry must not undo a later write. Inject a hand-crafted
    // duplicate ("the original arriving late after a retry") directly
    // into the network and verify the MN suppresses it.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t a = 0xAAAA, b = 0xBBBB;
    ASSERT_EQ(client.rwrite(addr, &a, sizeof(a)), Status::kOk);
    ASSERT_EQ(client.rwrite(addr, &b, sizeof(b)), Status::kOk);

    // Replay the FIRST write as a "retry" (fresh id, original orig_id).
    auto replay = std::make_shared<RequestMsg>();
    replay->type = MsgType::kWrite;
    replay->pid = client.pid();
    replay->req_id = 0xDEAD0001;
    // The original id of write A, as CNode assigned it: CN node id in
    // the high bits, sequence 2 (1 = the alloc).
    replay->orig_req_id =
        (static_cast<ReqId>(cluster.cn(0).nodeId()) << 40) | 2;
    replay->src = cluster.cn(0).nodeId();
    replay->dst = mn.nodeId();
    replay->addr = addr;
    replay->size = sizeof(a);
    replay->data.resize(sizeof(a));
    std::memcpy(replay->data.data(), &a, sizeof(a));

    Packet pkt;
    pkt.src = replay->src;
    pkt.dst = replay->dst;
    pkt.req_id = replay->req_id;
    pkt.type = MsgType::kWrite;
    pkt.payload_len = sizeof(a);
    pkt.wire_bytes = kPacketHeaderBytes + sizeof(a);
    pkt.msg = replay;
    cluster.network().send(std::move(pkt));
    cluster.run();

    EXPECT_GE(mn.dedupBuffer().suppressed(), 1u);
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, sizeof(out)), Status::kOk);
    EXPECT_EQ(out, b); // replay did NOT clobber the later write
}

/** Hand-crafted packet: part `part` of `total`, carrying payload bytes
 * [offset, offset + len) of `msg`. */
Packet
craftedPart(NodeId src, NodeId dst, ReqId id, MsgType type,
            std::shared_ptr<const Message> msg, std::uint32_t part,
            std::uint32_t total, std::uint64_t offset, std::uint32_t len)
{
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.req_id = id;
    pkt.type = type;
    pkt.part = part;
    pkt.total_parts = total;
    pkt.payload_offset = offset;
    pkt.payload_len = len;
    pkt.wire_bytes = kPacketHeaderBytes + len;
    pkt.msg = std::move(msg);
    return pkt;
}

/** A write of `size` 0x5A bytes from CN 0 to MN 0, not yet sent. */
std::shared_ptr<RequestMsg>
craftedWrite(Cluster &cluster, ProcId pid, VirtAddr addr, ReqId id,
             std::uint64_t size)
{
    auto req = std::make_shared<RequestMsg>();
    req->type = MsgType::kWrite;
    req->pid = pid;
    req->req_id = id;
    req->orig_req_id = id;
    req->src = cluster.cn(0).nodeId();
    req->dst = cluster.mn(0).nodeId();
    req->addr = addr;
    req->size = size;
    req->data.assign(size, 0x5A);
    return req;
}

using Reply = std::pair<Status, std::uint64_t>;

/** Add a network node that appends the status and value of every
 * response it receives to `replies`: the sender of crafted requests. */
NodeId
addProbe(Cluster &cluster, std::vector<Reply> &replies)
{
    return cluster.network().addNode([&replies](Packet pkt) {
        const auto &resp = static_cast<const ResponseMsg &>(*pkt.msg);
        replies.emplace_back(resp.status, resp.value);
    });
}

/** A request of `type` from `probe` to MN 0 for `pid`, not yet sent. */
std::shared_ptr<RequestMsg>
probeRequest(Cluster &cluster, NodeId probe, ProcId pid, MsgType type,
             ReqId id)
{
    auto req = std::make_shared<RequestMsg>();
    req->type = type;
    req->pid = pid;
    req->req_id = id;
    req->orig_req_id = id;
    req->src = probe;
    req->dst = cluster.mn(0).nodeId();
    return req;
}

/** Deliver `req` as one single-part packet and run to quiescence. */
void
sendWhole(Cluster &cluster, const std::shared_ptr<RequestMsg> &req)
{
    cluster.network().send(craftedPart(req->src, req->dst, req->req_id,
                                       req->type, req, 0, 1, 0, 0));
    cluster.run();
}

/** The same request re-sent as a retry: fresh id, original orig id. */
std::shared_ptr<RequestMsg>
retryOf(const std::shared_ptr<RequestMsg> &req, ReqId id)
{
    auto retry = std::make_shared<RequestMsg>(*req);
    retry->req_id = id;
    return retry;
}

TEST(Integration, RetriedAtomicRepliesWithCachedResult)
{
    // T4: a retry of an executed atomic must not run again, and must
    // reply with the original's old value. Otherwise a retried rlock
    // whose first reply was lost reads 0 and takes a held lock.
    std::vector<Reply> replies; // outlives the probe node's handler
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr counter = client.ralloc(4 * MiB).value_or(0);
    const VirtAddr lock = counter + 64;
    const std::uint64_t five = 5, held = 1;
    ASSERT_EQ(client.rwrite(counter, &five, 8), Status::kOk);
    ASSERT_EQ(client.rwrite(lock, &held, 8), Status::kOk);

    const NodeId probe = addProbe(cluster, replies);
    auto add = probeRequest(cluster, probe, client.pid(), MsgType::kAtomic,
                            0xA1);
    add->addr = counter;
    add->aop = AtomicOp::kFetchAdd;
    add->arg0 = 1;
    auto tas = probeRequest(cluster, probe, client.pid(), MsgType::kAtomic,
                            0xB1);
    tas->addr = lock;
    tas->aop = AtomicOp::kTestAndSet;
    for (const auto &req : {add, retryOf(add, 0xA2), tas, retryOf(tas, 0xB2)})
        sendWhole(cluster, req);

    const std::vector<Reply> want = {{Status::kOk, 5},
                                     {Status::kOk, 5},
                                     {Status::kOk, 1},
                                     {Status::kOk, 1}};
    EXPECT_EQ(replies, want);
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(counter, &out, 8), Status::kOk);
    EXPECT_EQ(out, 6u); // the fetch-add executed once
}

TEST(Integration, DuplicatedAllocAndFreeExecuteOnce)
{
    // A switch-duplicated alloc/free, or a retry of one whose reply was
    // lost, must not run twice: the second alloc would leak a range the
    // CN never learns, the second free would answer kBadAddress.
    std::vector<Reply> replies; // outlives the probe node's handler
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const NodeId probe = addProbe(cluster, replies);
    auto alloc = probeRequest(cluster, probe, client.pid(), MsgType::kAlloc,
                              0xC1);
    alloc->size = 4 * MiB;
    alloc->perm = kPermReadWrite;
    sendWhole(cluster, alloc);
    sendWhole(cluster, alloc); // duplicate
    sendWhole(cluster, retryOf(alloc, 0xC2));
    ASSERT_EQ(replies.size(), 3u);
    const VirtAddr addr = replies[0].second;
    EXPECT_EQ(mn.stats().allocs, 1u);
    for (const auto &[status, value] : replies) {
        EXPECT_EQ(status, Status::kOk);
        EXPECT_EQ(value, addr);
    }

    auto dealloc = probeRequest(cluster, probe, client.pid(),
                                MsgType::kFree, 0xC3);
    dealloc->addr = addr;
    sendWhole(cluster, dealloc);
    sendWhole(cluster, dealloc); // duplicate
    EXPECT_EQ(mn.stats().frees, 1u);
    ASSERT_EQ(replies.size(), 5u);
    EXPECT_EQ(replies[3].first, Status::kOk);
    EXPECT_EQ(replies[4].first, Status::kOk);
}

TEST(Integration, MalformedAllocPartDropped)
{
    // Slow-path packets pass the same part check as every request: an
    // alloc claiming part 5 of 2 is dropped, counted and never run.
    std::vector<Reply> replies; // outlives the probe node's handler
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const NodeId probe = addProbe(cluster, replies);
    auto alloc = probeRequest(cluster, probe, client.pid(), MsgType::kAlloc,
                              0xD1);
    alloc->size = 4 * MiB;
    alloc->perm = kPermReadWrite;
    cluster.network().send(craftedPart(alloc->src, alloc->dst, 0xD1,
                                       MsgType::kAlloc, alloc, 5, 2, 0, 0));
    cluster.run();
    EXPECT_EQ(mn.stats().malformed_parts_dropped, 1u);
    EXPECT_EQ(mn.stats().allocs, 0u);
    EXPECT_TRUE(replies.empty());
}

TEST(Integration, MalformedRequestPartsDropped)
{
    // A part index past the part count, or a part count that disagrees
    // with the request's first packet, must neither count toward
    // completion nor execute.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    const std::vector<std::uint8_t> zeros(16, 0);
    ASSERT_EQ(client.rwrite(addr, zeros.data(), zeros.size()), Status::kOk);

    const ReqId id = 0xBAD0001;
    auto req = craftedWrite(cluster, client.pid(), addr, id, 16);
    // Part 0 carries bytes [0, 8), every other part [8, 16).
    auto send = [&](std::uint32_t part, std::uint32_t total) {
        cluster.network().send(craftedPart(req->src, req->dst, id,
                                           MsgType::kWrite, req, part,
                                           total, part == 0 ? 0 : 8, 8));
        cluster.run();
    };
    send(0, 2);
    send(5, 2); // part index beyond the count
    send(1, 3); // count disagrees with the first packet
    EXPECT_FALSE(mn.dedupBuffer().find(id).has_value()); // not complete
    EXPECT_EQ(mn.stats().malformed_parts_dropped, 2u);

    send(1, 2); // the real second half completes the request
    EXPECT_TRUE(mn.dedupBuffer().find(id).has_value());
    std::vector<std::uint8_t> out(16);
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, req->data);
}

TEST(Integration, WriteSliceOutsidePayloadDropped)
{
    // A write slice must lie inside the request's data: executing
    // [4, 12) of an 8-byte payload would read past the buffer.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    const std::vector<std::uint8_t> zeros(16, 0);
    ASSERT_EQ(client.rwrite(addr, zeros.data(), zeros.size()), Status::kOk);

    const ReqId id = 0xBAD0002;
    auto req = craftedWrite(cluster, client.pid(), addr, id, 8);
    cluster.network().send(craftedPart(req->src, req->dst, id,
                                       MsgType::kWrite, req, 0, 1, 4, 8));
    cluster.run();

    EXPECT_EQ(mn.stats().malformed_parts_dropped, 1u);
    EXPECT_FALSE(mn.dedupBuffer().find(id).has_value());
    std::vector<std::uint8_t> out(16);
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, zeros);
}

TEST(Integration, MalformedResponsePartsDropped)
{
    // A response part past the part count must not complete the
    // request while part 1 is missing. The MN is down, so only the
    // crafted packets answer; the request must end in a timeout.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    cluster.mn(0).crash();

    std::uint64_t out = 0;
    HandlePtr read = client.rreadAsync(addr, &out, sizeof(out));
    // The CN's ids: node id in the high bits, sequence 2 (1 = alloc).
    const ReqId id = (static_cast<ReqId>(cluster.cn(0).nodeId()) << 40) | 2;
    auto resp = std::make_shared<ResponseMsg>();
    resp->req_id = id;
    resp->data.assign(8, 0x5A);
    for (std::uint32_t part : {0u, 5u}) {
        cluster.network().send(craftedPart(cluster.mn(0).nodeId(),
                                           cluster.cn(0).nodeId(), id,
                                           MsgType::kResponse, resp, part,
                                           2, part == 0 ? 0 : 4, 4));
    }
    cluster.run();

    ASSERT_TRUE(read->done);
    EXPECT_EQ(read->status, Status::kTimeout);
    EXPECT_EQ(cluster.cn(0).stats().malformed_parts_dropped, 1u);
}

TEST(Integration, ReadFaultingMidRangeAnswersHeaderOnly)
{
    // A read copies its data into the response while it translates. One
    // that runs from a mapped page into an unmapped one must drop what
    // it copied and answer kBadAddress with a bare header.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const std::uint64_t page = cluster.mn(0).config().page_table.page_size;
    const VirtAddr addr = client.ralloc(page).value_or(0);
    ASSERT_NE(addr, 0u);
    const std::vector<std::uint8_t> data(256, 0x5A);
    ASSERT_EQ(client.rwrite(addr + page - 256, data.data(), data.size()),
              Status::kOk);
    std::uint8_t probe = 0;
    ASSERT_EQ(client.rread(addr + page, &probe, 1), Status::kBadAddress);

    const NetStats before = cluster.network().stats();
    std::vector<std::uint8_t> out(512);
    EXPECT_EQ(client.rread(addr + page - 256, out.data(), out.size()),
              Status::kBadAddress);
    const NetStats &after = cluster.network().stats();
    EXPECT_EQ(after.delivered - before.delivered, 2u);
    EXPECT_EQ(after.bytes_delivered - before.bytes_delivered,
              2u * kPacketHeaderBytes);
}

TEST(Integration, ReadLengthFarPastTheMappingAllocatesNothing)
{
    // The response grows page by page as the read translates, so a
    // length far past anything mapped (1 PiB, more than any host can
    // allocate) answers kBadAddress instead of sizing a buffer for it.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    std::uint64_t out = 0;
    EXPECT_EQ(client.rread(addr, &out, 1ull << 50), Status::kBadAddress);
}

TEST(Integration, AbandonedInflightEntryIsCollectedAndSlotReused)
{
    // Drop part 1 of the first 2-part write: the MN keeps a half-built
    // entry under that attempt's id while the CN retries under a new one.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    CBoard &mn = cluster.mn(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    bool dropped = false;
    cluster.network().setFaultHook([&](const Packet &pkt) {
        FaultVerdict v;
        if (!dropped && pkt.type == MsgType::kWrite && pkt.part == 1) {
            v.drop = true;
            dropped = true;
        }
        return v;
    });
    const std::uint64_t mtu = cluster.network().config().mtu;
    const std::vector<std::uint8_t> first(mtu, 0x11); // 2 parts
    ASSERT_EQ(client.rwrite(addr, first.data(), first.size()), Status::kOk);
    ASSERT_TRUE(dropped);
    EXPECT_EQ(client.cnode().stats().retries, 1u);
    EXPECT_EQ(mn.inflightEntries(), 1u);
    cluster.network().setFaultHook(nullptr);

    // The GC drops entries idle for 10x the client timeout, checking
    // once every 4096 packets.
    EventQueue &eq = cluster.eventQueue();
    eq.runUntilTime(eq.now() + 10 * mn.config().clib.timeout + 1);
    std::uint64_t word = 0;
    for (int i = 0; i < 4096; i++)
        ASSERT_EQ(client.rread(addr, &word, sizeof(word)), Status::kOk);
    EXPECT_EQ(mn.inflightEntries(), 0u);

    // Multi-part writes and reads through the recycled slots.
    Rng rng(5);
    const std::uint64_t sizes[] = {3000, 2 * mtu, 5000};
    for (const std::uint64_t size : sizes) {
        std::vector<std::uint8_t> in(size);
        for (auto &b : in)
            b = static_cast<std::uint8_t>(rng.next());
        const VirtAddr at = addr + rng.uniformInt(4 * MiB - size);
        ASSERT_EQ(client.rwrite(at, in.data(), size), Status::kOk);
        std::vector<std::uint8_t> out(size);
        ASSERT_EQ(client.rread(at, out.data(), size), Status::kOk);
        EXPECT_EQ(out, in);
    }
    EXPECT_EQ(mn.inflightEntries(), 0u);
}

TEST(Integration, LatencyMatchesPaperBallpark)
{
    // §7.1: 16 B reads ~2.5 us median end to end on the prototype.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwrite(addr, &v, sizeof(v)); // warm (fault + TLB)

    LatencyHistogram hist;
    std::uint8_t buf[16];
    for (int i = 0; i < 200; i++) {
        const Tick t0 = cluster.eventQueue().now();
        ASSERT_EQ(client.rread(addr, buf, 16), Status::kOk);
        hist.record(cluster.eventQueue().now() - t0);
    }
    const double median_us = ticksToUs(hist.median());
    EXPECT_GT(median_us, 1.0);
    EXPECT_LT(median_us, 4.0);
    // Bounded tail (no page faults, smooth pipeline): p99 < 2x median.
    EXPECT_LT(ticksToUs(hist.p99()), 2 * median_us);
}

TEST(Integration, MultiMnDistinctSpaces)
{
    Cluster cluster(baseConfig(), 2, 3);
    ClioClient &client = cluster.createClient(0);

    // Allocate several regions; with windowed mode they never collide
    // even when placed on different MNs.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 6; i++) {
        const VirtAddr a = client.ralloc(4 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        for (VirtAddr prev : addrs)
            EXPECT_NE(a, prev);
        addrs.push_back(a);
    }
    // Round-trip through every region (may live on different MNs).
    for (std::size_t i = 0; i < addrs.size(); i++) {
        std::uint64_t v = 4242 + i;
        ASSERT_EQ(client.rwrite(addrs[i], &v, sizeof(v)), Status::kOk);
    }
    for (std::size_t i = 0; i < addrs.size(); i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addrs[i], &out, sizeof(out)), Status::kOk);
        EXPECT_EQ(out, 4242 + i);
    }
}

TEST(Integration, MigrationPreservesData)
{
    auto cfg = baseConfig();
    Cluster cluster(cfg, 1, 2, 64 * MiB); // small MNs: 16 frames each
    ClioClient &client = cluster.createClient(0);

    // Fill a region on some MN.
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    const std::uint32_t src_mn = cluster.mnIndexOf(client.mnFor(addr));
    std::vector<std::uint64_t> vals(4);
    for (int p = 0; p < 4; p++) {
        vals[static_cast<std::size_t>(p)] = 0x1000 + p;
        ASSERT_EQ(client.rwrite(addr + p * 4 * MiB,
                                &vals[static_cast<std::size_t>(p)], 8),
                  Status::kOk);
    }

    const VirtAddr region_start =
        addr / cfg.dist.region_size * cfg.dist.region_size;
    auto report =
        cluster.migrateRegion(client.pid(), src_mn, region_start);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.pages_moved, 4u);
    EXPECT_NE(report.dst_mn, src_mn);
    EXPECT_GT(report.duration, 0u);

    // Client now routes to the new MN and data is intact.
    EXPECT_EQ(cluster.mnIndexOf(client.mnFor(addr)), report.dst_mn);
    for (int p = 0; p < 4; p++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addr + p * 4 * MiB, &out, sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, vals[static_cast<std::size_t>(p)]);
    }
}

TEST(Integration, PressureBalancing)
{
    auto cfg = baseConfig();
    cfg.dist.region_size = 16 * MiB; // small regions for the test
    Cluster cluster(cfg, 1, 2, 64 * MiB);
    ClioClient &client = cluster.createClient(0);

    // Write until one MN is under pressure.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 6; i++) {
        const VirtAddr a = client.ralloc(8 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        std::uint64_t v = 777 + i;
        ASSERT_EQ(client.rwrite(a, &v, sizeof(v)), Status::kOk);
        ASSERT_EQ(client.rwrite(a + 4 * MiB, &v, sizeof(v)), Status::kOk);
        addrs.push_back(a);
    }
    cluster.balancePressure();
    // Whatever moved, all data is still correct.
    for (int i = 0; i < 6; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addrs[static_cast<std::size_t>(i)], &out,
                               sizeof(out)),
                  Status::kOk);
        EXPECT_EQ(out, 777u + static_cast<unsigned>(i));
    }
}

/** Minimal offload used to exercise the extend path. */
class EchoAddOffload : public Offload
{
  public:
    OffloadResult
    invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg) override
    {
        // arg: 8-byte little-endian value; stores value+1 at a fresh
        // allocation and echoes it back.
        OffloadResult res;
        if (arg.size() != 8) {
            res.status = Status::kOffloadError;
            return res;
        }
        std::uint64_t v = 0;
        std::memcpy(&v, arg.data(), 8);
        const VirtAddr slot = vm.alloc(4 * MiB);
        if (!slot) {
            res.status = Status::kOffloadError;
            return res;
        }
        vm.write64(slot, v + 1);
        auto out = vm.read64(slot);
        res.value = out.value_or(0);
        res.data.resize(8);
        std::memcpy(res.data.data(), &res.value, 8);
        vm.chargeCycles(10);
        return res;
    }
};

TEST(Integration, OffloadInvocation)
{
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload({.id = 7},
                                  std::make_shared<EchoAddOffload>());

    std::vector<std::uint8_t> arg(8);
    const std::uint64_t v = 41;
    std::memcpy(arg.data(), &v, 8);
    const Result<OffloadReply> reply =
        client.rcall(cluster.mn(0).nodeId(), 7, arg);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->value, 42u);
    ASSERT_EQ(reply->data.size(), 8u);
    EXPECT_EQ(cluster.mn(0).stats().offload_calls, 1u);
    // Unknown offload id is rejected.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 99, arg).status(),
              Status::kOffloadError);
}

TEST(Integration, ThroughputReachesLineRateWithAsync)
{
    // §7.1 Fig. 8 sanity: async 1 KB reads from enough concurrency
    // approach the 10 Gbps port limit.
    Cluster cluster(baseConfig(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(64 * MiB).value_or(0);
    std::vector<std::uint8_t> chunk(1024, 0x5A);
    for (int p = 0; p < 16; p++)
        client.rwrite(addr + p * 4 * MiB, chunk.data(), chunk.size());

    const Tick t0 = cluster.eventQueue().now();
    std::vector<std::uint8_t> bufs(16 * 1024);
    std::uint64_t bytes = 0;
    std::vector<HandlePtr> handles;
    for (int round = 0; round < 64; round++) {
        for (int p = 0; p < 16; p++) {
            handles.push_back(client.rreadAsync(
                addr + p * 4 * MiB, bufs.data() + p * 1024, 1024));
            bytes += 1024;
        }
        client.rpoll(handles);
        handles.clear();
    }
    const Tick elapsed = cluster.eventQueue().now() - t0;
    const double gbps =
        static_cast<double>(bytes) * 8.0 / ticksToSeconds(elapsed) / 1e9;
    EXPECT_GT(gbps, 4.0); // within reach of the 10 Gbps port
    EXPECT_LT(gbps, 10.0);
}

} // namespace
} // namespace clio
