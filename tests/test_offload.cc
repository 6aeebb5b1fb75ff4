/**
 * @file
 * Offload runtime tests: error-code naming, engine-scheduler
 * arbitration, OffloadVm edge cases (permissions, alloc failure, bad
 * free, page-boundary spans), registry schema enforcement, chained
 * plans (binds, early stop, per-stage replies, error abort), and
 * restart re-initialization.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cboard/cboard.hh"
#include "cluster/cluster.hh"
#include "offload/chain.hh"
#include "offload/engine.hh"
#include "offload/errc.hh"

namespace clio {
namespace {

// ---------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------

TEST(OffloadErrcTest, ReservedNames)
{
    EXPECT_STREQ(to_string(OffloadErrc::kNone), "None");
    EXPECT_STREQ(to_string(OffloadErrc::kBadArgument), "BadArgument");
    EXPECT_STREQ(to_string(OffloadErrc::kNotFound), "NotFound");
    EXPECT_STREQ(to_string(OffloadErrc::kChainTooDeep), "ChainTooDeep");
    EXPECT_EQ(to_string(OffloadErrc::kAppBase), nullptr);
}

TEST(OffloadErrcTest, RawCodeNames)
{
    EXPECT_EQ(offloadErrcName(5), "NotFound");
    EXPECT_EQ(offloadErrcName(256), "App(0)");
    EXPECT_EQ(offloadErrcName(259), "App(3)");
    EXPECT_EQ(offloadErrcName(100), "OffloadErrc(100)");
}

// ---------------------------------------------------------------------
// Engine scheduler
// ---------------------------------------------------------------------

TEST(EngineSchedulerTest, EarliestFreeLowestIndex)
{
    EngineScheduler sched(2);
    // First two admissions start immediately on engines 0 and 1.
    auto g0 = sched.admit(10);
    EXPECT_EQ(g0.engine, 0u);
    EXPECT_EQ(g0.start, 10u);
    sched.complete(g0, 50);
    auto g1 = sched.admit(20);
    EXPECT_EQ(g1.engine, 1u);
    EXPECT_EQ(g1.start, 20u);
    sched.complete(g1, 80);
    // Third waits for the earliest-free engine (0, free at 50).
    auto g2 = sched.admit(30);
    EXPECT_EQ(g2.engine, 0u);
    EXPECT_EQ(g2.start, 50u);
    sched.complete(g2, 60);

    const EngineSchedulerStats &st = sched.stats();
    EXPECT_EQ(st.dispatches, 3u);
    EXPECT_EQ(st.wait_ticks, 20u); // g2 waited 50 - 30
    EXPECT_EQ(st.busy_ticks, 40u + 60u + 10u);
}

TEST(EngineSchedulerTest, TieBreaksToLowestIndex)
{
    EngineScheduler sched(3);
    // All engines free at 0: repeated admissions at the same tick must
    // walk 0, 1, 2 (a pure function of prior admissions).
    for (std::uint32_t i = 0; i < 3; i++) {
        auto g = sched.admit(0);
        EXPECT_EQ(g.engine, i);
        sched.complete(g, 100);
    }
}

TEST(EngineSchedulerTest, ResetClearsWatermarksKeepsStats)
{
    EngineScheduler sched(1);
    auto g = sched.admit(0);
    sched.complete(g, 1000);
    sched.reset();
    EXPECT_EQ(sched.freeAt(0), 0u);
    EXPECT_EQ(sched.stats().dispatches, 1u); // counters survive
    EXPECT_EQ(sched.admit(5).start, 5u);
}

// ---------------------------------------------------------------------
// OffloadVm edge cases
// ---------------------------------------------------------------------

struct VmFixture
{
    ModelConfig cfg = ModelConfig::prototype();
    EventQueue eq;
    Network net;
    CBoard board;
    OffloadVm vm;

    VmFixture()
        : net(eq, cfg.net, 3), board(eq, net, cfg, 0),
          vm(board, OffloadRegistry::kOffloadPidBase)
    {
    }
};

TEST(OffloadVmTest, PermissionDeniedWrite)
{
    VmFixture f;
    const VirtAddr ro = f.vm.alloc(4 * KiB, kPermRead);
    ASSERT_NE(ro, 0u);
    std::uint64_t v = 7;
    EXPECT_FALSE(f.vm.write(ro, &v, 8)); // read-only page
    EXPECT_TRUE(f.vm.read(ro, &v, 8));
    EXPECT_EQ(v, 0u); // fresh page reads as zero
}

TEST(OffloadVmTest, PermissionDeniedRead)
{
    VmFixture f;
    const VirtAddr wo = f.vm.alloc(4 * KiB, kPermWrite);
    ASSERT_NE(wo, 0u);
    std::uint64_t v = 7;
    EXPECT_TRUE(f.vm.write(wo, &v, 8));
    EXPECT_FALSE(f.vm.read(wo, &v, 8)); // write-only page
}

TEST(OffloadVmTest, AllocFailureReturnsZero)
{
    VmFixture f;
    // Larger than the 2^46-byte per-process RAS: must fail cleanly.
    EXPECT_EQ(f.vm.alloc(1ull << 47), 0u);
}

TEST(OffloadVmTest, FreeOfNeverAllocatedAddress)
{
    VmFixture f;
    EXPECT_FALSE(f.vm.free(123 * MiB));
    // Control time was still charged (the ARM did the failed lookup).
    EXPECT_GT(f.vm.costSplit().control, 0u);
}

TEST(OffloadVmTest, AccessSpansPageBoundary)
{
    VmFixture f;
    const std::uint64_t page =
        f.board.config().page_table.page_size;
    const VirtAddr base = f.vm.alloc(2 * page);
    ASSERT_NE(base, 0u);
    // 256 bytes straddling the page boundary: two translations, data
    // split across two frames, reassembled transparently.
    std::uint8_t out[256], in[256];
    for (int i = 0; i < 256; i++)
        out[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const VirtAddr addr = base + page - 128;
    ASSERT_TRUE(f.vm.write(addr, out, sizeof(out)));
    ASSERT_TRUE(f.vm.read(addr, in, sizeof(in)));
    EXPECT_EQ(std::memcmp(out, in, sizeof(out)), 0);
    const OffloadCost &split = f.vm.costSplit();
    EXPECT_GT(split.translate, 0u);
    EXPECT_GT(split.dram, 0u);
}

TEST(OffloadVmTest, FaultChargesNoTime)
{
    VmFixture f;
    std::uint64_t v = 0;
    const Tick before = f.vm.cost();
    EXPECT_FALSE(f.vm.read(99 * GiB, &v, 8)); // no PTE
    EXPECT_EQ(f.vm.cost(), before);
}

// ---------------------------------------------------------------------
// Registry + dispatch (cluster level)
// ---------------------------------------------------------------------

/** Test offload: value = seed + add, data = the 8 result bytes.
 * Argument schema: 16 bytes {seed u64, add u64}. */
class AccumOffload : public Offload
{
  public:
    static std::vector<std::uint8_t>
    encode(std::uint64_t seed, std::uint64_t add)
    {
        std::vector<std::uint8_t> arg(16);
        std::memcpy(arg.data(), &seed, 8);
        std::memcpy(arg.data() + 8, &add, 8);
        return arg;
    }

    static OffloadDescriptor
    descriptor(std::uint32_t id)
    {
        return {.id = id, .name = "accum", .arg_bytes = 16};
    }

    OffloadResult
    invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg) override
    {
        OffloadResult res;
        std::uint64_t seed = 0, add = 0;
        std::memcpy(&seed, arg.data(), 8);
        std::memcpy(&add, arg.data() + 8, 8);
        res.value = seed + add;
        res.data.resize(8);
        std::memcpy(res.data.data(), &res.value, 8);
        vm.chargeCycles(10);
        return res;
    }
};

constexpr std::uint32_t kAccumId = 42;

struct ChainFixture
{
    Cluster cluster;
    ClioClient &client;
    NodeId mn;

    explicit ChainFixture(ModelConfig cfg = ModelConfig::prototype())
        : cluster(cfg, 1, 1), client(cluster.createClient(0)),
          mn(cluster.mn(0).nodeId())
    {
        cluster.mn(0).registerOffload(AccumOffload::descriptor(kAccumId),
                                      std::make_shared<AccumOffload>());
    }

    const OffloadEntry &
    entry()
    {
        return *cluster.mn(0).offloadRuntime().registry().find(kAccumId);
    }
};

TEST(OffloadRegistryTest, SchemaEnforcedAtDispatch)
{
    ChainFixture f;
    // 4 argument bytes against a 16-byte schema: rejected before the
    // offload runs, with the named code and a useful message.
    const Result<OffloadReply> r =
        f.client.rcall(f.mn, kAccumId, std::vector<std::uint8_t>(4));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status(), Status::kOffloadError);
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kBadArgument));
    EXPECT_EQ(r.errName(), "BadArgument");
    EXPECT_NE(r.errMessage().find("16"), std::string::npos);
    EXPECT_EQ(f.entry().stats.errors, 1u);
}

TEST(OffloadRegistryTest, UnregisteredIdReported)
{
    ChainFixture f;
    const Result<OffloadReply> r = f.client.rcall(f.mn, 777, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kUnregistered));
}

TEST(OffloadRegistryTest, StatsAndCostAttribution)
{
    ChainFixture f;
    const Result<OffloadReply> r =
        f.client.rcall(f.mn, kAccumId, AccumOffload::encode(30, 12));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, 42u);
    const OffloadEntry &e = f.entry();
    EXPECT_EQ(e.stats.calls, 1u);
    EXPECT_EQ(e.stats.errors, 0u);
    EXPECT_GT(e.stats.cost.compute, 0u); // chargeCycles(10)
    EXPECT_GE(e.pid, OffloadRegistry::kOffloadPidBase);
}

TEST(OffloadRegistryTest, RedeployReplacesEntry)
{
    OffloadRegistry reg;
    auto first = std::make_shared<AccumOffload>();
    auto second = std::make_shared<AccumOffload>();
    const ProcId pid1 = reg.deploy(AccumOffload::descriptor(5), first);
    reg.find(5)->stats.calls = 9;
    const ProcId pid2 = reg.deploy(AccumOffload::descriptor(5), second);
    EXPECT_NE(pid1, pid2);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.find(5)->offload.get(), second.get());
    EXPECT_EQ(reg.find(5)->stats.calls, 0u); // stats reset
}

// ---------------------------------------------------------------------
// Chained plans
// ---------------------------------------------------------------------

TEST(OffloadChainTest, BindValueThreadsStages)
{
    ChainFixture f;
    // 10 +1 +2 +3, each stage's seed patched from the previous value.
    ChainPlan plan;
    plan.stage(kAccumId, AccumOffload::encode(10, 1));
    plan.stage(kAccumId, AccumOffload::encode(0, 2)).bindValue(0);
    plan.stage(kAccumId, AccumOffload::encode(0, 3)).bindValue(0);
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, 16u);
    EXPECT_TRUE(r->stages.empty()); // not requested
    EXPECT_EQ(f.entry().stats.chain_stages, 3u);
    EXPECT_EQ(f.entry().stats.calls, 0u);
    EXPECT_EQ(f.cluster.mn(0).stats().offload_chains, 1u);
}

TEST(OffloadChainTest, BindDataAndPerStageReplies)
{
    ChainFixture f;
    // Seed bound from the previous stage's DATA payload this time.
    ChainPlan plan;
    plan.stage(kAccumId, AccumOffload::encode(100, 5));
    plan.stage(kAccumId, AccumOffload::encode(0, 5)).bindData(0, 0);
    plan.perStageReplies();
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, 110u);
    ASSERT_EQ(r->stages.size(), 2u);
    EXPECT_EQ(r->stages[0].value, 105u);
    EXPECT_EQ(r->stages[1].value, 110u);
}

TEST(OffloadChainTest, StopOnZeroValueEndsChainEarly)
{
    ChainFixture f;
    ChainPlan plan;
    plan.stage(kAccumId, AccumOffload::encode(5, ~std::uint64_t(4)))
        .stopOnZeroValue(); // 5 + (-5) == 0
    plan.stage(kAccumId, AccumOffload::encode(0, 9)).bindValue(0);
    plan.perStageReplies();
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, 0u);
    EXPECT_EQ(r->stages.size(), 1u); // second stage never ran
    EXPECT_EQ(f.entry().stats.chain_stages, 1u);
}

TEST(OffloadChainTest, StageErrorAbortsChain)
{
    ChainFixture f;
    ChainPlan plan;
    plan.stage(kAccumId, AccumOffload::encode(1, 1));
    plan.stage(kAccumId, std::vector<std::uint8_t>(4)); // bad schema
    plan.stage(kAccumId, AccumOffload::encode(0, 1)).bindValue(0);
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kBadArgument));
    EXPECT_EQ(r.errMessage().rfind("stage 1: ", 0), 0u)
        << r.errMessage();
    EXPECT_EQ(f.entry().stats.chain_stages, 2u); // third never ran
}

TEST(OffloadChainTest, TooDeepRejected)
{
    auto cfg = ModelConfig::prototype();
    cfg.offload.max_chain_depth = 2;
    ChainFixture f(cfg);
    ChainPlan plan;
    for (int i = 0; i < 3; i++)
        plan.stage(kAccumId, AccumOffload::encode(0, 1));
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kChainTooDeep));
}

TEST(OffloadChainTest, BadBindRejected)
{
    ChainFixture f;
    ChainPlan plan;
    plan.stage(kAccumId, AccumOffload::encode(1, 1));
    // Source reply data is 8 bytes; offset 16 is out of range.
    plan.stage(kAccumId, AccumOffload::encode(0, 1)).bindData(16, 0);
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kBadChainBind));
}

TEST(OffloadChainTest, EmptyChainRejected)
{
    ChainFixture f;
    ChainPlan plan;
    const Result<OffloadReply> r = f.client.rcall_chain(f.mn, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.errCode(),
              static_cast<std::uint32_t>(OffloadErrc::kBadArgument));
}

// ---------------------------------------------------------------------
// Engine occupancy + restart
// ---------------------------------------------------------------------

TEST(OffloadRuntimeTest, SingleEngineSerializesCompute)
{
    auto cfg = ModelConfig::prototype();
    cfg.offload.engines = 1;
    ChainFixture f(cfg);
    OffloadRuntime &rt = f.cluster.mn(0).offloadRuntime();
    CBoard &board = f.cluster.mn(0);
    OffloadResult r1, r2;
    const auto arg = AccumOffload::encode(1, 2);
    const Tick d1 = rt.runSingle(board, kAccumId, arg, 0, r1);
    const Tick d2 = rt.runSingle(board, kAccumId, arg, 0, r2);
    EXPECT_GT(d1, 0u);
    EXPECT_EQ(d2, 2 * d1); // queued behind the first dispatch
    EXPECT_EQ(rt.scheduler().stats().wait_ticks, d1);
}

TEST(OffloadRuntimeTest, TwoEnginesRunConcurrently)
{
    auto cfg = ModelConfig::prototype();
    cfg.offload.engines = 2;
    ChainFixture f(cfg);
    OffloadRuntime &rt = f.cluster.mn(0).offloadRuntime();
    CBoard &board = f.cluster.mn(0);
    OffloadResult r1, r2;
    const auto arg = AccumOffload::encode(1, 2);
    const Tick d1 = rt.runSingle(board, kAccumId, arg, 0, r1);
    const Tick d2 = rt.runSingle(board, kAccumId, arg, 0, r2);
    EXPECT_EQ(d2, d1); // no queueing
    EXPECT_EQ(rt.scheduler().stats().wait_ticks, 0u);
}

TEST(OffloadRuntimeTest, RestartRerunsInit)
{
    class CountingInit : public Offload
    {
      public:
        int inits = 0;
        VirtAddr slot = 0;
        void
        init(OffloadVm &vm) override
        {
            inits++;
            slot = vm.alloc(4 * KiB);
        }
        OffloadResult
        invoke(OffloadVm &vm,
               const std::vector<std::uint8_t> &) override
        {
            OffloadResult res;
            res.value = vm.read64(slot).value_or(999);
            return res;
        }
    };
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto off = std::make_shared<CountingInit>();
    cluster.mn(0).registerOffload({.id = 77}, off);
    EXPECT_EQ(off->inits, 1);
    cluster.mn(0).crash();
    cluster.mn(0).restart();
    EXPECT_EQ(off->inits, 2); // deployment survives, RAS rebuilt
    const Result<OffloadReply> r =
        client.rcall(cluster.mn(0).nodeId(), 77, {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, 0u); // fresh page again, not 999
}

} // namespace
} // namespace clio
