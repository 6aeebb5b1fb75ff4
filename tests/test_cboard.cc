/**
 * @file
 * Device-level CBoard tests: fast-path timing determinism, dedup
 * buffer semantics, fence gating, out-of-memory behaviour, offload VM
 * isolation, async-buffer refill, and slow-path cost model.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cboard/cboard.hh"
#include "cboard/dedup_buffer.hh"
#include "cluster/cluster.hh"

namespace clio {
namespace {

struct BoardFixture
{
    EventQueue eq;
    Network net;
    CBoard board;

    explicit BoardFixture(ModelConfig cfg = ModelConfig::prototype(),
                          std::uint64_t phys = 0)
        : net(eq, cfg.net, 3), board(eq, net, cfg, phys)
    {
    }

    /** Map one page for `pid` and return its base VA. */
    VirtAddr
    mapPage(ProcId pid, std::uint64_t vpn, PhysAddr frame)
    {
        board.pageTable().insert(pid, vpn, kPermReadWrite);
        board.pageTable().bindFrame(pid, vpn, frame);
        return vpn * board.config().page_table.page_size;
    }

    RequestMsg
    makeRead(ProcId pid, VirtAddr addr, std::uint64_t size, ReqId id)
    {
        RequestMsg req;
        req.type = MsgType::kRead;
        req.pid = pid;
        req.addr = addr;
        req.size = size;
        req.req_id = id;
        req.orig_req_id = id;
        return req;
    }
};

TEST(CBoardDevice, FastPathTimingIsDeterministic)
{
    // The paper's determinism claim: identical warm requests take an
    // identical, bounded number of ticks.
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    auto req = f.makeRead(1, addr, 64, 1);
    ResponseMsg r0;
    f.board.serviceFastPath(req, 0, r0); // warm the TLB

    std::vector<Tick> durations;
    Tick start = 100 * kMicrosecond;
    for (int i = 0; i < 10; i++) {
        req.req_id = static_cast<ReqId>(i + 2);
        ResponseMsg resp;
        const Tick done = f.board.serviceFastPath(req, start, resp);
        durations.push_back(done - start);
        start += 50 * kMicrosecond; // spaced: no pipeline overlap
    }
    for (std::size_t i = 1; i < durations.size(); i++)
        EXPECT_EQ(durations[i], durations[0]);
}

TEST(CBoardDevice, TlbMissCostsExactlyOneDramAccess)
{
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    auto req = f.makeRead(1, addr, 16, 1);

    ResponseMsg warm_resp;
    f.board.serviceFastPath(req, 0, warm_resp); // includes the miss
    const Tick start = 1 * kMillisecond;
    req.req_id = 2;
    ResponseMsg hit_resp;
    const Tick hit = f.board.serviceFastPath(req, start, hit_resp) -
                     start;

    f.board.tlb().invalidate(1, 1);
    const Tick start2 = 2 * kMillisecond;
    req.req_id = 3;
    ResponseMsg miss_resp;
    const Tick miss = f.board.serviceFastPath(req, start2, miss_resp) -
                      start2;
    EXPECT_EQ(miss - hit, f.board.config().dram.access_latency);
}

TEST(CBoardDevice, PipelineOccupancyBoundsThroughput)
{
    // Back-to-back 1 KB reads cannot exceed the datapath's bytes per
    // cycle.
    BoardFixture f;
    const VirtAddr addr = f.mapPage(1, 1, 0);
    const int n = 200;
    Tick last = 0;
    for (int i = 0; i < n; i++) {
        auto req = f.makeRead(1, addr, 1024, static_cast<ReqId>(i + 1));
        ResponseMsg resp;
        last = f.board.serviceFastPath(req, 0, resp);
    }
    const double gbps = n * 1024 * 8.0 / ticksToSeconds(last) / 1e9;
    const double ceiling =
        static_cast<double>(f.board.config().fastPathPeakBps()) / 1e9;
    EXPECT_LT(gbps, ceiling);
    EXPECT_GT(gbps, 0.5 * ceiling); // and the pipeline stays busy
}

TEST(CBoardDevice, OutOfMemoryFaultReported)
{
    // 2 frames total; buffer reserves one; touching 3 pages fails.
    auto cfg = ModelConfig::prototype();
    BoardFixture f(cfg, 2 * cfg.page_table.page_size);
    for (std::uint64_t vpn = 1; vpn <= 3; vpn++) {
        std::uint64_t probe = vpn;
        while (f.board.pageTable().freeSlotsInBucket(7, probe) == 0)
            probe += 100;
        f.board.pageTable().insert(7, probe, kPermReadWrite);
        RequestMsg req;
        req.type = MsgType::kWrite;
        req.pid = 7;
        req.addr = probe * cfg.page_table.page_size;
        req.size = 8;
        req.data.resize(8, 1);
        req.req_id = vpn;
        req.orig_req_id = vpn;
        ResponseMsg resp;
        f.board.serviceFastPath(req, 0, resp);
        if (vpn <= 2) {
            EXPECT_EQ(resp.status, Status::kOk);
        } else {
            EXPECT_EQ(resp.status, Status::kOutOfMemory);
        }
    }
    EXPECT_GE(f.board.stats().out_of_memory, 1u);
}

TEST(CBoardDevice, SlowPathCostsScaleWithRetriesAndPages)
{
    BoardFixture f;
    const auto &sp = f.board.config().slow_path;
    ResponseMsg resp;
    const Tick one_page = f.board.slowPathAlloc(1, 4 * MiB, kPermRead,
                                                resp);
    ASSERT_EQ(resp.status, Status::kOk);
    ResponseMsg resp2;
    const Tick many_pages =
        f.board.slowPathAlloc(1, 40 * MiB, kPermRead, resp2);
    ASSERT_EQ(resp2.status, Status::kOk);
    EXPECT_EQ(many_pages - one_page, 9 * sp.valloc_per_page);
}

TEST(CBoardDevice, DestroyProcessReclaimsEverything)
{
    BoardFixture f;
    ResponseMsg resp;
    f.board.slowPathAlloc(5, 40 * MiB, kPermReadWrite, resp, true);
    ASSERT_EQ(resp.status, Status::kOk);
    const std::uint64_t used_before = f.board.frames().usedFrames();
    EXPECT_GT(f.board.pageTable().liveEntries(), 0u);
    const std::uint64_t page = f.board.config().page_table.page_size;
    const PhysAddr frame =
        f.board.pageTable().lookup(5, resp.value / page)->frame;
    f.board.memory().write64(frame + 8, 0x5EC2E7);

    f.board.destroyProcess(5);
    EXPECT_EQ(f.board.pageTable().liveEntries(), 0u);
    EXPECT_LT(f.board.frames().usedFrames(), used_before);
    EXPECT_EQ(f.board.vaAllocator().allocatedBytes(5), 0u);
    EXPECT_EQ(f.board.memory().read64(frame + 8), 0u); // zeroed when freed
}

TEST(DedupBufferUnit, RecordFindEvict)
{
    DedupBuffer buf(3);
    buf.record(1, 100);
    buf.record(2, 200);
    EXPECT_EQ(buf.find(1).value_or(0), 100u);
    EXPECT_EQ(buf.find(2).value_or(0), 200u);
    EXPECT_FALSE(buf.find(3).has_value());
    buf.record(3);
    buf.record(4); // evicts 1 (FIFO ring)
    EXPECT_FALSE(buf.find(1).has_value());
    EXPECT_TRUE(buf.find(2).has_value());
    EXPECT_EQ(buf.size(), 3u);
    // Duplicate record is idempotent.
    buf.record(2, 999);
    EXPECT_EQ(buf.find(2).value_or(0), 200u);
    EXPECT_EQ(buf.size(), 3u);
}

TEST(DedupBufferUnit, EvictionIsStrictlyFifoAcrossWraparound)
{
    DedupBuffer buf(4);
    EXPECT_EQ(buf.capacity(), 4u);
    // Fill several times over; exactly the last 4 ids must survive.
    for (ReqId id = 1; id <= 25; id++)
        buf.record(id, id * 10);
    EXPECT_EQ(buf.size(), 4u);
    for (ReqId id = 1; id <= 21; id++)
        EXPECT_FALSE(buf.find(id).has_value()) << "id " << id;
    for (ReqId id = 22; id <= 25; id++)
        EXPECT_EQ(buf.find(id).value_or(0), id * 10) << "id " << id;
}

TEST(DedupBufferUnit, WritesCacheZeroAtomicsCacheResults)
{
    DedupBuffer buf(8);
    buf.record(7); // a write: no atomic result
    buf.record(8, 0xDEADu); // an atomic: cached return value
    // Both are "found" (execution must be suppressed); only the
    // atomic carries a meaningful replay value.
    ASSERT_TRUE(buf.find(7).has_value());
    EXPECT_EQ(*buf.find(7), 0u);
    ASSERT_TRUE(buf.find(8).has_value());
    EXPECT_EQ(*buf.find(8), 0xDEADu);
}

TEST(DedupBufferUnit, SuppressedStatCountsOnlyWhenNoted)
{
    DedupBuffer buf(4);
    buf.record(1, 11);
    EXPECT_EQ(buf.suppressed(), 0u);
    // A retry hit: the MN replays the cached result and notes it.
    ASSERT_TRUE(buf.find(1).has_value());
    buf.noteSuppressed();
    buf.noteSuppressed();
    EXPECT_EQ(buf.suppressed(), 2u);
    // Lookups alone never bump the stat.
    (void)buf.find(1);
    (void)buf.find(99);
    EXPECT_EQ(buf.suppressed(), 2u);
}

TEST(DedupBufferUnit, CapacityOneKeepsOnlyNewest)
{
    // Degenerate sizing (TIMEOUT x bandwidth rounding down): the ring
    // still works, holding exactly the most recent id.
    DedupBuffer buf(1);
    buf.record(5, 55);
    EXPECT_EQ(buf.find(5).value_or(0), 55u);
    buf.record(6, 66);
    EXPECT_FALSE(buf.find(5).has_value());
    EXPECT_EQ(buf.find(6).value_or(0), 66u);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(CBoardDevice, FenceGatesLaterFastPathWork)
{
    // After a fence completes at tick T, requests arriving earlier
    // than T may not start before it (T3 gating).
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);
    std::uint64_t v = 1;
    client.rwrite(addr, &v, 8);

    // Launch a slow op (big write) async, then a fence, then a read:
    // the read must not complete before the fence.
    std::vector<std::uint8_t> big(256 * KiB, 0xAA);
    auto hw = client.rwriteAsync(addr + 4 * MiB, big.data(), big.size());
    auto hf = client.fenceAsync();
    std::uint64_t out = 0;
    auto hr = client.rreadAsync(addr, &out, 8);
    // The fence is a full barrier in the client ordering layer too,
    // so completion order must be: write, fence, read.
    EventQueue &eq = cluster.eventQueue();
    eq.runUntil([&] { return hr->done; });
    EXPECT_TRUE(hw->done);
    EXPECT_TRUE(hf->done);
    EXPECT_EQ(out, 1u);
}

TEST(CBoardDevice, OffloadAddressSpacesAreIsolated)
{
    // Two offloads get distinct PIDs: identical VAs name different
    // memory (R5 for the extend path).
    class Writer : public Offload
    {
      public:
        VirtAddr slot = 0;
        void
        init(OffloadVm &vm) override
        {
            slot = vm.alloc(4 * MiB);
        }
        OffloadResult
        invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg) override
        {
            OffloadResult res;
            if (arg.size() == 8) {
                std::uint64_t v;
                std::memcpy(&v, arg.data(), 8);
                vm.write64(slot, v);
            }
            res.value = vm.read64(slot).value_or(0);
            return res;
        }
    };
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto w1 = std::make_shared<Writer>();
    auto w2 = std::make_shared<Writer>();
    cluster.mn(0).registerOffload({.id = 10}, w1);
    cluster.mn(0).registerOffload({.id = 11}, w2);
    EXPECT_EQ(w1->slot, w2->slot); // same VA, separate spaces

    std::vector<std::uint8_t> arg(8);
    std::uint64_t v1 = 111, v2 = 222;
    std::memcpy(arg.data(), &v1, 8);
    client.rcall(cluster.mn(0).nodeId(), 10, arg);
    std::memcpy(arg.data(), &v2, 8);
    client.rcall(cluster.mn(0).nodeId(), 11, arg);
    // Re-read each offload's value with an empty arg.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 10, {})->value, v1);
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 11, {})->value, v2);
}

TEST(CBoardDevice, AsyncBufferRefillsAfterFaultBurst)
{
    auto cfg = ModelConfig::prototype();
    cfg.mn_phys_bytes = 2 * GiB;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const std::uint64_t page = cfg.page_table.page_size;
    const VirtAddr addr = client.ralloc(200 * page).value_or(0);
    std::uint64_t v = 1;
    for (int i = 0; i < 128; i++)
        client.rwrite(addr + static_cast<std::uint64_t>(i) * page, &v, 8);
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 128u);
    // Let background refills drain, then the next fault is cheap.
    cluster.eventQueue().runUntilTime(cluster.eventQueue().now() +
                                      kMillisecond);
    const Tick t0 = cluster.eventQueue().now();
    client.rwrite(addr + 199 * page, &v, 8);
    EXPECT_LT(cluster.eventQueue().now() - t0, 10 * kMicrosecond);
}

TEST(CBoardDevice, BadOffloadIdAndBadFree)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 12345, {}).status(),
              Status::kOffloadError);
    EXPECT_EQ(client.rfree(123 * MiB), Status::kBadAddress);
}

} // namespace
} // namespace clio
