/**
 * @file
 * Tests for the developer simulator (§5) and cross-CN shared address
 * spaces (§3.1): processes on different CNs sharing one RAS, with
 * MN-side locks providing mutual exclusion (T3).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "apps/kv_store.hh"
#include "cluster/cluster.hh"
#include "devsim/dev_board.hh"

namespace clio {
namespace {

TEST(DevBoard, FunctionalRoundTrip)
{
    DevBoard dev;
    DevProcess proc = dev.openProcess();
    const VirtAddr addr = proc.ralloc(8 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    const char msg[] = "developing without hardware";
    ASSERT_EQ(proc.rwrite(addr, msg, sizeof(msg)), Status::kOk);
    char out[sizeof(msg)] = {};
    ASSERT_EQ(proc.rread(addr, out, sizeof(out)), Status::kOk);
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(proc.rfree(addr), Status::kOk);
    EXPECT_EQ(proc.rread(addr, out, 1), Status::kBadAddress);
}

TEST(DevBoard, EnforcesSameSemanticsAsCluster)
{
    DevBoard dev;
    DevProcess alice = dev.openProcess();
    DevProcess bob = dev.openProcess();
    const VirtAddr a = alice.ralloc(4 * MiB, kPermRead).value_or(0);
    ASSERT_NE(a, 0u);
    std::uint64_t v = 1;
    // Read-only page rejects writes; foreign pid rejects everything.
    EXPECT_EQ(alice.rwrite(a, &v, 8), Status::kPermDenied);
    EXPECT_EQ(bob.rread(a, &v, 8), Status::kBadAddress);
}

TEST(DevBoard, ReadLengthFarPastTheMappingAllocatesNothing)
{
    // Regression: the whole-request fast path sized the response to the
    // request before translating, so a 1 PiB read threw bad_alloc
    // instead of failing at the first unmapped page.
    DevBoard dev;
    DevProcess proc = dev.openProcess();
    const VirtAddr addr = proc.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    std::uint64_t out = 0;
    EXPECT_EQ(proc.rread(addr, &out, std::uint64_t{1} << 50),
              Status::kBadAddress);
}

TEST(DevBoard, OffloadDevelopmentWorkflow)
{
    // Developing Clio-KV against the DevBoard: same offload object
    // that deploys on the cluster.
    DevBoard dev;
    dev.board().registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>(64));
    std::vector<std::uint8_t> result;
    std::uint64_t found = 0;
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, "k1", "v1")),
              Status::kOk);
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kGet, "k1"), &result,
                              &found),
              Status::kOk);
    EXPECT_EQ(found, 1u);
    EXPECT_EQ(std::string(result.begin(), result.end()), "v1");
}

TEST(SharedRas, CrossCnSharingThroughOneAddressSpace)
{
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    ClioClient &writer = cluster.createClient(0);
    ClioClient &reader = cluster.createSharedClient(1, writer);
    EXPECT_EQ(writer.pid(), reader.pid());

    const VirtAddr addr = writer.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);
    std::uint64_t v = 0xFEED;
    ASSERT_EQ(writer.rwrite(addr, &v, 8), Status::kOk);

    // The reader on another CN sees the same RAS (§3.1) — it needs
    // the VA (exchanged at application level) but no re-allocation.
    std::uint64_t out = 0;
    ASSERT_EQ(reader.rread(addr, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xFEEDu);

    // And writes flow the other way too.
    std::uint64_t v2 = 0xBEEF;
    ASSERT_EQ(reader.rwrite(addr + 64, &v2, 8), Status::kOk);
    ASSERT_EQ(writer.rread(addr + 64, &out, 8), Status::kOk);
    EXPECT_EQ(out, 0xBEEFu);
}

TEST(SharedRas, MnSideLockSerializesCrossCnCriticalSections)
{
    // T3: rlock is a TAS executed at the MN, so it provides mutual
    // exclusion between CNs sharing a RAS.
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    ClioClient &c1 = cluster.createClient(0);
    ClioClient &c2 = cluster.createSharedClient(1, c1);

    const VirtAddr lock = c1.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(lock, 0u);

    ASSERT_TRUE(c1.rlock(lock));
    // Held by CN0: CN1's bounded attempt must fail...
    EXPECT_FALSE(c2.rlock(lock, 3));
    c1.runlock(lock);
    // ...and succeed after release.
    EXPECT_TRUE(c2.rlock(lock, 8));
    EXPECT_FALSE(c1.rlock(lock, 3));
    c2.runlock(lock);
}

TEST(SharedRas, CountersUnderCrossCnContention)
{
    // Interleaved fetch-adds from two CNs: atomics serialize at the
    // MN; the final count is exact.
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    ClioClient &c1 = cluster.createClient(0);
    ClioClient &c2 = cluster.createSharedClient(1, c1);
    const VirtAddr counter = c1.ralloc(4 * MiB).value_or(0);

    std::vector<HandlePtr> handles;
    for (int i = 0; i < 40; i++) {
        handles.push_back(
            c1.atomicAsync(counter, AtomicOp::kFetchAdd, 1));
        handles.push_back(
            c2.atomicAsync(counter, AtomicOp::kFetchAdd, 1));
    }
    ASSERT_TRUE(c1.rpoll(handles));
    std::uint64_t final_value = 0;
    ASSERT_EQ(c1.rread(counter, &final_value, 8), Status::kOk);
    EXPECT_EQ(final_value, 80u);
    // Old values returned by the TAS chain are all distinct.
    std::set<std::uint64_t> olds;
    for (const auto &handle : handles)
        EXPECT_TRUE(olds.insert(handle->value).second);
}

TEST(SharedRas, FreedByOneGoneForAll)
{
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    ClioClient &c1 = cluster.createClient(0);
    ClioClient &c2 = cluster.createSharedClient(1, c1);
    const VirtAddr addr = c1.ralloc(4 * MiB).value_or(0);
    std::uint64_t v = 3;
    ASSERT_EQ(c2.rwrite(addr, &v, 8), Status::kOk);
    ASSERT_EQ(c1.rfree(addr), Status::kOk);
    EXPECT_EQ(c2.rread(addr, &v, 8), Status::kBadAddress);
}

} // namespace
} // namespace clio
