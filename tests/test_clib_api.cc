/**
 * @file
 * The redesigned CLib surface: Result<T> typed results, RemotePtr /
 * RemoteSlice / RemoteRegion remote pointers, and the batched
 * SubmissionBatch / CompletionQueue path — including the ordering
 * layer's WAR/RAW/WAW guarantees *within* one batch, the
 * ordering_stalls counter across batches, and the single-shot
 * completion-delivery contract (double completion can never re-fire a
 * continuation).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "apps/runner.hh"
#include "clib/queue.hh"
#include "clib/remote_ptr.hh"
#include "cluster/cluster.hh"

namespace clio {
namespace {

// ---------------------------------------------------------------------
// Result<T>
// ---------------------------------------------------------------------

TEST(ResultType, CarriesValueOrError)
{
    const Result<VirtAddr> ok = VirtAddr{0x40000000};
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.status(), Status::kOk);
    EXPECT_EQ(*ok, 0x40000000u);
    EXPECT_EQ(ok.value_or(0), 0x40000000u);

    const Result<VirtAddr> err = Status::kOutOfMemory;
    EXPECT_FALSE(err.ok());
    EXPECT_FALSE(static_cast<bool>(err));
    EXPECT_EQ(err.status(), Status::kOutOfMemory);
    EXPECT_EQ(err.value_or(7), 7u);
    EXPECT_STREQ(err.statusName(), "OutOfMemory");
}

TEST(ResultType, StatusNamesAreHumanReadable)
{
    EXPECT_STREQ(to_string(Status::kOk), "Ok");
    EXPECT_STREQ(to_string(Status::kBadAddress), "BadAddress");
    EXPECT_STREQ(to_string(Status::kPermDenied), "PermDenied");
    EXPECT_STREQ(to_string(Status::kOutOfMemory), "OutOfMemory");
    EXPECT_STREQ(to_string(Status::kRetryExceeded), "RetryExceeded");
    EXPECT_STREQ(to_string(Status::kCorrupt), "Corrupt");
    EXPECT_STREQ(to_string(Status::kOffloadError), "OffloadError");
    // gtest failure messages stream the name, not a raw integer.
    std::ostringstream os;
    os << Status::kBadAddress;
    EXPECT_EQ(os.str(), "BadAddress");
}

TEST(ResultType, SupportsMoveOnlyValues)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    Result<RemoteRegion> region = RemoteRegion::alloc(client, 4 * MiB);
    ASSERT_TRUE(region.ok());
    RemoteRegion owned = std::move(region).value();
    EXPECT_TRUE(owned.valid());
    EXPECT_EQ(owned.size(), 4 * MiB);
}

// ---------------------------------------------------------------------
// RemotePtr / RemoteSlice / RemoteRegion
// ---------------------------------------------------------------------

struct Point
{
    std::uint64_t x = 0;
    std::uint64_t y = 0;
};

TEST(RemotePointers, TypedReadWriteAndArithmetic)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    RemotePtr<Point> points(client, addr);
    ASSERT_TRUE(points.valid());
    for (std::uint64_t i = 0; i < 8; i++) {
        ASSERT_EQ(points.at(i).write(Point{i, i * i}), Status::kOk);
    }
    // at(i) and operator+ stride by sizeof(Point).
    EXPECT_EQ((points + 3).addr(), addr + 3 * sizeof(Point));
    const Result<Point> p5 = points.at(5).read();
    ASSERT_TRUE(p5.ok());
    EXPECT_EQ(p5->x, 5u);
    EXPECT_EQ(p5->y, 25u);
}

TEST(RemotePointers, InvalidPtrAndReadFailure)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    EXPECT_FALSE(RemotePtr<std::uint64_t>());
    // Reading unallocated memory surfaces the MN status as an error
    // Result rather than garbage.
    RemotePtr<std::uint64_t> bogus(client, 512 * MiB);
    const Result<std::uint64_t> r = bogus.read();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), Status::kBadAddress);
}

TEST(RemotePointers, AtomicsThroughTypedPtr)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    RemotePtr<std::uint64_t> counter(client, addr);

    EXPECT_EQ(counter.fetchAdd(8).value_or(99), 0u);
    EXPECT_EQ(counter.fetchAdd(2).value_or(99), 8u);
    EXPECT_EQ(counter.read().value_or(0), 10u);
    // CAS: match swaps, mismatch doesn't.
    EXPECT_EQ(counter.compareSwap(10, 77).value_or(0), 10u);
    EXPECT_EQ(counter.read().value_or(0), 77u);
    EXPECT_EQ(counter.compareSwap(10, 1).value_or(0), 77u);
    EXPECT_EQ(counter.read().value_or(0), 77u);
}

TEST(RemotePointers, SliceBoundsAndSubslice)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    RemoteSlice slice(client, addr, 4096);

    const char msg[] = "sliced";
    ASSERT_EQ(slice.write(100, msg, sizeof(msg)), Status::kOk);
    char out[sizeof(msg)] = {};
    ASSERT_EQ(slice.read(100, out, sizeof(out)), Status::kOk);
    EXPECT_STREQ(out, "sliced");

    // Subslice re-bases offsets and narrows the bounds.
    RemoteSlice sub = slice.subslice(100, sizeof(msg));
    EXPECT_EQ(sub.addr(), addr + 100);
    std::memset(out, 0, sizeof(out));
    ASSERT_EQ(sub.read(0, out, sizeof(msg)), Status::kOk);
    EXPECT_STREQ(out, "sliced");

    // Typed view into the slice.
    ASSERT_EQ(slice.ptr<std::uint64_t>(8).write(0xABCD), Status::kOk);
    EXPECT_EQ(slice.ptr<std::uint64_t>(8).read().value_or(0), 0xABCDu);
}

TEST(RemotePointers, RegionFreesOnScopeExit)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    VirtAddr addr = 0;
    {
        auto region = RemoteRegion::alloc(client, 4 * MiB);
        ASSERT_TRUE(region.ok());
        addr = region->addr();
        std::uint64_t v = 5;
        ASSERT_EQ(region->slice().write(0, &v, 8), Status::kOk);
        EXPECT_EQ(client.stats().frees, 0u);
    }
    // Scope exit rfree'd the page: the VA is gone for everyone.
    EXPECT_EQ(client.stats().frees, 1u);
    std::uint64_t out = 0;
    EXPECT_EQ(client.rread(addr, &out, 8), Status::kBadAddress);
}

TEST(RemotePointers, RegionReleaseDisowns)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    VirtAddr addr = 0;
    {
        auto region = RemoteRegion::alloc(client, 4 * MiB);
        ASSERT_TRUE(region.ok());
        addr = region->release();
        EXPECT_FALSE(region->valid());
    }
    // Released: still allocated, caller owns the free now.
    std::uint64_t v = 9;
    EXPECT_EQ(client.rwrite(addr, &v, 8), Status::kOk);
    EXPECT_EQ(client.rfree(addr), Status::kOk);
}

// ---------------------------------------------------------------------
// CompletionQueue semantics
// ---------------------------------------------------------------------

TEST(CompletionQueueApi, DeliversWatchedHandles)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    CompletionQueue cq(cluster.eventQueue());
    std::uint64_t v = 123, out = 0;
    cq.watch(client.rwriteAsync(addr, &v, 8), 7);
    EXPECT_EQ(cq.outstanding(), 1u);
    auto comps = cq.rpoll_cq(4);
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].tag, 7u);
    EXPECT_TRUE(comps[0].ok());
    EXPECT_EQ(cq.outstanding(), 0u);
    EXPECT_EQ(client.rread(addr, &out, 8), Status::kOk);
    EXPECT_EQ(out, 123u);
}

TEST(CompletionQueueApi, DoubleCompletionCannotRefire)
{
    // The single-shot regression the old on_done contract only
    // promised in a comment: delivering a handle twice must not
    // duplicate its completion.
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    CompletionQueue cq(cluster.eventQueue());
    std::uint64_t v = 1;
    auto handle = client.rwriteAsync(addr, &v, 8);
    cq.watch(handle, 1);
    EXPECT_EQ(cq.rpoll_cq(4).size(), 1u);
    // Force a second completion delivery: consumed latch makes it a
    // no-op instead of a re-fired continuation.
    cq.deliver(handle);
    cq.deliver(handle);
    EXPECT_EQ(cq.ready(), 0u);
    EXPECT_EQ(cq.poll(4).size(), 0u);
    EXPECT_EQ(cq.outstanding(), 0u);
}

TEST(CompletionQueueApi, WatchAfterCompletionDeliversOnce)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t v = 1;
    auto handle = client.rwriteAsync(addr, &v, 8);
    ASSERT_TRUE(client.rpoll(handle)); // completes before registration
    // Let simulated time move on, then register: the completion must
    // still carry the tick the request finished, not the watch tick.
    EventQueue &eq = cluster.eventQueue();
    const Tick completed_by = eq.now();
    eq.runUntilTime(eq.now() + kMillisecond);
    CompletionQueue cq(eq);
    cq.watch(handle, 5);
    EXPECT_EQ(cq.outstanding(), 0u);
    auto comps = cq.poll(4);
    ASSERT_EQ(comps.size(), 1u);
    EXPECT_EQ(comps[0].tag, 5u);
    EXPECT_LE(comps[0].completed_at, completed_by);
    EXPECT_GT(comps[0].completed_at, 0u);
    cq.deliver(handle); // and double delivery is still inert
    EXPECT_EQ(cq.ready(), 0u);
}

TEST(CompletionQueueApi, CompletionOrderAndTimestamps)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);

    CompletionQueue cq(cluster.eventQueue());
    std::uint64_t a = 1, b = 2;
    // Conflicting writes (same page): the ordering layer serializes
    // them, so delivery order must match submission order.
    cq.watch(client.rwriteAsync(addr, &a, 8), 0);
    cq.watch(client.rwriteAsync(addr, &b, 8), 1);
    std::vector<Completion> all;
    while (all.size() < 2) {
        for (Completion &c : cq.rpoll_cq(2))
            all.push_back(std::move(c));
    }
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].tag, 0u);
    EXPECT_EQ(all[1].tag, 1u);
    EXPECT_LE(all[0].completed_at, all[1].completed_at);
    EXPECT_GT(all[0].completed_at, 0u);
}

// ---------------------------------------------------------------------
// SubmissionBatch
// ---------------------------------------------------------------------

TEST(SubmissionBatchApi, BatchedRoundTripAndStats)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);

    std::uint64_t vals[4] = {10, 20, 30, 40};
    SubmissionBatch wb(client);
    for (int i = 0; i < 4; i++)
        wb.write(addr + static_cast<std::uint64_t>(i) * 4 * MiB,
                 &vals[i], 8);
    EXPECT_EQ(wb.size(), 4u);
    const BatchOutcome wrote = wb.submitAndWait();
    EXPECT_TRUE(wrote.ok());
    ASSERT_EQ(wrote.completions.size(), 4u);

    std::uint64_t out[4] = {};
    SubmissionBatch rb(client);
    for (int i = 0; i < 4; i++)
        rb.read(addr + static_cast<std::uint64_t>(i) * 4 * MiB, &out[i],
                8);
    EXPECT_TRUE(rb.submitAndWait().ok());
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(out[i], vals[i]);

    EXPECT_EQ(client.stats().batches, 2u);
    EXPECT_EQ(client.stats().batched_ops, 8u);
}

TEST(SubmissionBatchApi, MixedOpsIncludingAllocAndFree)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);

    SubmissionBatch batch(client);
    const std::size_t a = batch.alloc(4 * MiB);
    const std::size_t f = batch.fence();
    const BatchOutcome out = batch.submitAndWait();
    ASSERT_TRUE(out.ok());
    const VirtAddr addr = out.completions[a].value;
    ASSERT_NE(addr, 0u);
    EXPECT_TRUE(out.completions[f].ok());

    SubmissionBatch batch2(client);
    std::uint64_t v = 3;
    batch2.write(addr, &v, 8);
    batch2.atomic(addr, AtomicOp::kFetchAdd, 4);
    EXPECT_TRUE(batch2.submitAndWait().ok());
    std::uint64_t now_val = 0;
    ASSERT_EQ(client.rread(addr, &now_val, 8), Status::kOk);
    EXPECT_EQ(now_val, 7u);

    SubmissionBatch batch3(client);
    batch3.free(addr);
    EXPECT_TRUE(batch3.submitAndWait().ok());
    EXPECT_EQ(client.rread(addr, &now_val, 8), Status::kBadAddress);
}

TEST(SubmissionBatchApi, FailureSurfacesFirstErrorStatus)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t v = 1, out = 0;
    SubmissionBatch batch(client);
    batch.write(addr, &v, 8);
    batch.read(512 * MiB, &out, 8); // unallocated -> kBadAddress
    const BatchOutcome res = batch.submitAndWait();
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status, Status::kBadAddress);
    EXPECT_TRUE(res.completions[0].ok());
    EXPECT_EQ(res.completions[1].status, Status::kBadAddress);
}

TEST(SubmissionBatchApi, VectoredReadWrite)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    const std::string hello = "vectored ";
    const std::string world = "io";
    SubmissionBatch wb(client);
    wb.write(addr, hello.data(), hello.size());
    wb.write(addr + hello.size(), world.data(), world.size());
    ASSERT_TRUE(wb.submitAndWait().ok());
    std::string a(hello.size(), '\0');
    std::string b(world.size(), '\0');
    SubmissionBatch rb(client);
    rb.read(addr, a.data(), a.size());
    rb.read(addr + hello.size(), b.data(), b.size());
    ASSERT_TRUE(rb.submitAndWait().ok());
    EXPECT_EQ(a + b, "vectored io");
}

TEST(SubmissionBatchApi, StagingDoesNoIo)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    const std::uint64_t sent = cluster.network().stats().sent;
    std::uint64_t src = 0x5EED, out = 0;
    SubmissionBatch batch(client);
    batch.write(addr, &src, 8);
    batch.read(addr, &out, 8);
    EXPECT_EQ(cluster.network().stats().sent, sent);
    EXPECT_EQ(client.outstanding(), 0u);

    // The write's payload was copied when it was staged.
    src = 0xBAD;
    ASSERT_TRUE(batch.submitAndWait().ok());
    EXPECT_EQ(out, 0x5EEDu);
}

// ---------------------------------------------------------------------
// Ordering layer (T2) under batched submission
// ---------------------------------------------------------------------

TEST(BatchOrdering, RawWithinOneBatch)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    // write -> read of the same page in ONE batch: the read must stall
    // behind the write and observe its value.
    std::uint64_t v = 0xD00D, out = 0;
    SubmissionBatch batch(client);
    batch.write(addr, &v, 8);
    batch.read(addr, &out, 8);
    const BatchOutcome res = batch.submitAndWait();
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(out, 0xD00Du);
    EXPECT_GE(client.stats().ordering_stalls, 1u);
    // The read completed strictly after the write.
    EXPECT_GT(res.completions[1].completed_at,
              res.completions[0].completed_at);
}

TEST(BatchOrdering, WarWithinOneBatch)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint64_t before = 0xAAAA;
    ASSERT_EQ(client.rwrite(addr, &before, 8), Status::kOk);

    // read -> write of the same page in ONE batch: the write must wait
    // for the read, which therefore observes the OLD value.
    std::uint64_t out = 0, after = 0xBBBB;
    SubmissionBatch batch(client);
    batch.read(addr, &out, 8);
    batch.write(addr, &after, 8);
    ASSERT_TRUE(batch.submitAndWait().ok());
    EXPECT_EQ(out, 0xAAAAu);
    std::uint64_t now_val = 0;
    ASSERT_EQ(client.rread(addr, &now_val, 8), Status::kOk);
    EXPECT_EQ(now_val, 0xBBBBu);
    EXPECT_GE(client.stats().ordering_stalls, 1u);
}

TEST(BatchOrdering, WawWithinOneBatchKeepsSubmissionOrder)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    std::uint64_t first = 1, second = 2, third = 3;
    SubmissionBatch batch(client);
    batch.write(addr, &first, 8);
    batch.write(addr, &second, 8);
    batch.write(addr, &third, 8);
    ASSERT_TRUE(batch.submitAndWait().ok());
    // Last staged write wins: WAW order preserved.
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(addr, &out, 8), Status::kOk);
    EXPECT_EQ(out, 3u);
    // Two of the three writes stalled behind a predecessor.
    EXPECT_EQ(client.stats().ordering_stalls, 2u);
}

TEST(BatchOrdering, IndependentBatchMembersDontStall)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);

    std::uint64_t v = 9;
    SubmissionBatch batch(client);
    for (int i = 0; i < 4; i++)
        batch.write(addr + static_cast<std::uint64_t>(i) * 4 * MiB, &v,
                    8);
    ASSERT_TRUE(batch.submitAndWait().ok());
    EXPECT_EQ(client.stats().ordering_stalls, 0u);
}

TEST(BatchOrdering, StallsCountedAcrossBatches)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);

    CompletionQueue cq(cluster.eventQueue());
    // Batch 1 writes the page; batch 2 reads it, submitted while
    // batch 1 is still inflight: the RAW dependency crosses the batch
    // boundary and must both stall and order correctly.
    std::uint64_t v = 0xF00D, out = 0;
    SubmissionBatch b1(client);
    b1.write(addr, &v, 8);
    b1.submit(cq, 0);
    SubmissionBatch b2(client);
    b2.read(addr, &out, 8);
    b2.submit(cq, 1);
    EXPECT_EQ(client.stats().ordering_stalls, 1u);

    std::size_t seen = 0;
    while (seen < 2)
        seen += cq.rpoll_cq(2).size();
    EXPECT_EQ(out, 0xF00Du);

    // A third batch against the now-idle page does not stall.
    SubmissionBatch b3(client);
    b3.read(addr, &out, 8);
    EXPECT_TRUE(b3.submitAndWait().ok());
    EXPECT_EQ(client.stats().ordering_stalls, 1u);
}

// ---------------------------------------------------------------------
// Closed-loop runner on the CQ path
// ---------------------------------------------------------------------

TEST(RunnerCq, ActorsResumeViaCompletionQueue)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);

    ClosedLoopRunner runner(cluster.eventQueue());
    struct ActorState
    {
        int rounds = 0;
        std::uint64_t sum = 0;
        std::vector<Completion> comps;
    };
    std::vector<ActorState> states(3);
    for (int a = 0; a < 3; a++) {
        runner.addActor([a, &states, &client, addr]() -> ActorStep {
            ActorState &st = states[static_cast<std::size_t>(a)];
            for (const Completion &c : st.comps)
                st.sum += c.ok();
            st.comps.clear();
            if (st.rounds++ == 4)
                return ActorStep::done();
            SubmissionBatch batch(client);
            std::uint64_t v = static_cast<std::uint64_t>(a);
            batch.write(addr + static_cast<std::uint64_t>(a) * 4 * MiB,
                        &v, 8);
            batch.atomic(addr + 3 * 4 * MiB, AtomicOp::kFetchAdd, 1);
            return ActorStep::waitAll(std::move(batch), &st.comps);
        });
    }
    const Tick elapsed = runner.run();
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(runner.finished(), 3u);
    for (const ActorState &st : states)
        EXPECT_EQ(st.sum, 8u); // 4 rounds x 2 ok completions
    // All 12 fetch-adds landed exactly once.
    EXPECT_EQ(client.rfaa(addr + 3 * 4 * MiB, 0).value_or(0), 12u);
}

} // namespace
} // namespace clio
