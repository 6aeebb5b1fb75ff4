/**
 * @file
 * Tests for the five §6 applications: Clio-KV, Clio-MV, the radix
 * tree with pointer chasing, the image compression utility, and
 * Clio-DF — all running over the full simulated stack.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "apps/dataframe.hh"
#include "apps/image.hh"
#include "apps/kv_store.hh"
#include "apps/mv_store.hh"
#include "apps/radix_tree.hh"
#include "apps/runner.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

constexpr std::uint32_t kKvOffloadId = 1;

TEST(ClioKv, PutGetDelete)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(kKvOffloadId),
                                  std::make_shared<ClioKvOffload>());
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kKvOffloadId);

    EXPECT_FALSE(kv.get("missing").has_value());
    EXPECT_TRUE(kv.put("alpha", "one"));
    EXPECT_TRUE(kv.put("beta", "two"));
    EXPECT_EQ(kv.get("alpha").value_or(""), "one");
    EXPECT_EQ(kv.get("beta").value_or(""), "two");

    // Overwrite.
    EXPECT_TRUE(kv.put("alpha", "uno"));
    EXPECT_EQ(kv.get("alpha").value_or(""), "uno");

    // Delete.
    EXPECT_TRUE(kv.del("alpha"));
    EXPECT_FALSE(kv.get("alpha").has_value());
    EXPECT_FALSE(kv.del("alpha")); // already gone
    EXPECT_EQ(kv.get("beta").value_or(""), "two");
}

TEST(ClioKv, ManyKeysWithChaining)
{
    // Few buckets force slot chains (the §6 layout exercises slot
    // allocation and chain linking).
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto offload = std::make_shared<ClioKvOffload>(16);
    cluster.mn(0).registerOffload(
        ClioKvOffload::descriptor(kKvOffloadId), offload);
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kKvOffloadId);

    std::map<std::string, std::string> mirror;
    for (int i = 0; i < 300; i++) {
        const std::string key = YcsbGenerator::keyString(
            static_cast<std::uint64_t>(i * 977));
        const std::string value = "value-" + std::to_string(i);
        ASSERT_TRUE(kv.put(key, value));
        mirror[key] = value;
    }
    for (const auto &[key, value] : mirror)
        EXPECT_EQ(kv.get(key).value_or(""), value);
    EXPECT_GT(offload->slabsAllocated(), 0u);
}

TEST(ClioKv, LargeValues)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(kKvOffloadId),
                                  std::make_shared<ClioKvOffload>());
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kKvOffloadId);

    // YCSB-default 1 KB values.
    std::string big(1024, 'x');
    for (std::size_t i = 0; i < big.size(); i++)
        big[i] = static_cast<char>('a' + i % 26);
    ASSERT_TRUE(kv.put("big", big));
    EXPECT_EQ(kv.get("big").value_or(""), big);
}

TEST(ClioKv, PartitionsAcrossMns)
{
    Cluster cluster(ModelConfig::prototype(), 1, 3);
    ClioClient &client = cluster.createClient(0);
    std::vector<NodeId> mns;
    for (std::uint32_t m = 0; m < 3; m++) {
        cluster.mn(m).registerOffload(ClioKvOffload::descriptor(kKvOffloadId),
                                      std::make_shared<ClioKvOffload>());
        mns.push_back(cluster.mn(m).nodeId());
    }
    ClioKvClient kv(client, mns, kKvOffloadId);

    std::set<NodeId> used;
    for (int i = 0; i < 60; i++) {
        const std::string key = "key" + std::to_string(i);
        ASSERT_TRUE(kv.put(key, "v" + std::to_string(i)));
        used.insert(kv.mnForKey(key));
    }
    EXPECT_EQ(used.size(), 3u); // all partitions hit
    for (int i = 0; i < 60; i++) {
        EXPECT_EQ(kv.get("key" + std::to_string(i)).value_or(""),
                  "v" + std::to_string(i));
    }
}

TEST(ClioKv, YcsbMixedWorkload)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(kKvOffloadId),
                                  std::make_shared<ClioKvOffload>());
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kKvOffloadId);

    const std::uint64_t keys = 200;
    for (std::uint64_t k = 0; k < keys; k++)
        ASSERT_TRUE(kv.put(YcsbGenerator::keyString(k), "init"));

    YcsbGenerator gen(keys, YcsbWorkload::kA);
    std::map<std::string, std::string> mirror;
    for (std::uint64_t k = 0; k < keys; k++)
        mirror[YcsbGenerator::keyString(k)] = "init";
    for (int i = 0; i < 500; i++) {
        const YcsbOp op = gen.next();
        const std::string key = YcsbGenerator::keyString(op.key_index);
        if (op.is_set) {
            const std::string value = "v" + std::to_string(i);
            ASSERT_TRUE(kv.put(key, value));
            mirror[key] = value;
        } else {
            EXPECT_EQ(kv.get(key).value_or("<none>"), mirror[key]);
        }
    }
}

TEST(ClioMv, VersionLifecycle)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload(
        {.id = 2}, std::make_shared<ClioMvOffload>(16, 64, 32));
    ClioMvClient mv(client, cluster.mn(0).nodeId(), 2, 16);

    auto id = mv.create();
    ASSERT_TRUE(id.has_value());
    EXPECT_FALSE(mv.readLatest(*id).has_value()); // no versions yet

    EXPECT_EQ(mv.append(*id, "version-1-xxxxxx").value_or(0), 1u);
    EXPECT_EQ(mv.append(*id, "version-2-xxxxxx").value_or(0), 2u);
    EXPECT_EQ(mv.append(*id, "version-3-xxxxxx").value_or(0), 3u);

    EXPECT_EQ(mv.readLatest(*id).value_or(""), "version-3-xxxxxx");
    EXPECT_EQ(mv.readVersion(*id, 1).value_or(""), "version-1-xxxxxx");
    EXPECT_EQ(mv.readVersion(*id, 2).value_or(""), "version-2-xxxxxx");
    EXPECT_FALSE(mv.readVersion(*id, 4).has_value()); // future version

    EXPECT_TRUE(mv.remove(*id));
    EXPECT_FALSE(mv.readLatest(*id).has_value());
    // Id is recycled for the next create.
    auto id2 = mv.create();
    ASSERT_TRUE(id2.has_value());
    EXPECT_EQ(*id2, *id);
}

TEST(ClioMv, ManyObjectsIndependent)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffload(
        {.id = 2}, std::make_shared<ClioMvOffload>(16, 128, 8));
    ClioMvClient mv(client, cluster.mn(0).nodeId(), 2, 16);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 20; i++) {
        auto id = mv.create();
        ASSERT_TRUE(id.has_value());
        ids.push_back(*id);
        char buf[17];
        std::snprintf(buf, sizeof(buf), "obj-%04d-ver-001", i);
        ASSERT_TRUE(mv.append(*id, std::string(buf, 16)).has_value());
    }
    for (int i = 0; i < 20; i++) {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "obj-%04d-ver-001", i);
        EXPECT_EQ(mv.readLatest(ids[static_cast<std::size_t>(i)])
                      .value_or(""),
                  std::string(buf, 16));
    }
}

TEST(RadixTree, InsertAndSearchBothPaths)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    auto chase = std::make_shared<PointerChaseOffload>();
    cluster.mn(0).registerOffloadShared(PointerChaseOffload::descriptor(3),
                                        chase, client.pid());

    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), 3, 16 * MiB);
    EXPECT_TRUE(tree.insert("hello", 100));
    EXPECT_TRUE(tree.insert("help", 200));
    EXPECT_TRUE(tree.insert("world", 300));
    EXPECT_TRUE(tree.insert("he", 400));

    // Offload path.
    EXPECT_EQ(tree.searchOffload("hello").value.value_or(0), 100u);
    EXPECT_EQ(tree.searchOffload("help").value.value_or(0), 200u);
    EXPECT_EQ(tree.searchOffload("world").value.value_or(0), 300u);
    EXPECT_EQ(tree.searchOffload("he").value.value_or(0), 400u);
    EXPECT_FALSE(tree.searchOffload("hel").value.has_value()); // prefix
    EXPECT_FALSE(tree.searchOffload("nope").value.has_value());

    // Direct (RDMA-style) path agrees.
    EXPECT_EQ(tree.searchDirect("hello").value.value_or(0), 100u);
    EXPECT_FALSE(tree.searchDirect("nope").value.has_value());
    EXPECT_GT(chase->nodesVisited(), 0u);
}

TEST(RadixTree, OffloadSavesRoundTrips)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(3),
        std::make_shared<PointerChaseOffload>(), client.pid());
    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), 3, 16 * MiB);

    // Wide fanout: many siblings per level make per-node round trips
    // expensive (Fig. 17's growth with tree size).
    Rng rng(4);
    for (int i = 0; i < 150; i++) {
        std::string key;
        for (int c = 0; c < 6; c++)
            key.push_back(
                static_cast<char>('a' + rng.uniformInt(20)));
        ASSERT_TRUE(tree.insert(key, 1000 + static_cast<unsigned>(i)));
    }
    ASSERT_TRUE(tree.insert("zzzzzz", 9999));
    auto off = tree.searchOffload("zzzzzz");
    auto direct = tree.searchDirect("zzzzzz");
    EXPECT_EQ(off.value.value_or(0), 9999u);
    EXPECT_EQ(direct.value.value_or(0), 9999u);
    // One offload call per level vs one read per visited node.
    EXPECT_EQ(off.offload_calls, 6u);
    EXPECT_GT(direct.remote_reads, off.offload_calls);
}

TEST(Rle, RoundTripAndCompression)
{
    auto img = makeSyntheticImage(256, 256, 7);
    auto compressed = rleCompress(img);
    EXPECT_EQ(rleDecompress(compressed), img);
    // Banded synthetic images must actually compress.
    EXPECT_LT(compressed.size(), img.size() / 2);

    // Edge cases: empty, single byte, anti-pattern.
    EXPECT_TRUE(rleCompress({}).empty());
    std::vector<std::uint8_t> one{42};
    EXPECT_EQ(rleDecompress(rleCompress(one)), one);
    std::vector<std::uint8_t> alternating;
    for (int i = 0; i < 99; i++)
        alternating.push_back(i % 2 ? 0xFF : 0x00);
    EXPECT_EQ(rleDecompress(rleCompress(alternating)), alternating);
}

TEST(ImageApp, CompressCollectionRoundTrip)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    ImageCompressionTask task(client, 5, 64 * KiB);
    ASSERT_TRUE(task.setup());

    ClosedLoopRunner runner(cluster.eventQueue());
    runner.addActor(task.actor());
    const Tick elapsed = runner.run();
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(task.processed(), 5u);
    for (std::uint32_t i = 0; i < 5; i++)
        EXPECT_TRUE(task.verifyRoundTrip(i));
}

TEST(ImageApp, ConcurrentClientsAllComplete)
{
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    std::vector<std::unique_ptr<ImageCompressionTask>> tasks;
    ClosedLoopRunner runner(cluster.eventQueue());
    for (int c = 0; c < 6; c++) {
        ClioClient &client =
            cluster.createClient(static_cast<std::uint32_t>(c % 2));
        tasks.push_back(std::make_unique<ImageCompressionTask>(
            client, 3, 16 * KiB, 500,
            static_cast<std::uint64_t>(c + 1)));
        ASSERT_TRUE(tasks.back()->setup());
    }
    for (auto &task : tasks)
        runner.addActor(task->actor());
    runner.run();
    for (auto &task : tasks) {
        EXPECT_EQ(task->processed(), 3u);
        EXPECT_TRUE(task->verifyRoundTrip(0));
    }
}

TEST(DataFrame, OffloadAndCnPlansAgree)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(4),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(5),
        std::make_shared<AggregateOffload>(), client.pid());

    const std::uint64_t rows = 20000;
    Rng rng(21);
    std::vector<std::uint8_t> col_a(rows);
    std::vector<std::int64_t> col_b(rows);
    for (std::uint64_t i = 0; i < rows; i++) {
        col_a[i] = static_cast<std::uint8_t>(rng.uniformInt(4));
        col_b[i] = static_cast<std::int64_t>(rng.uniformInt(100));
    }
    ClioDataFrame df(client, cluster.mn(0).nodeId(), 4, 5);
    ASSERT_TRUE(df.load(col_a, col_b));

    auto off = df.runOffload(2);
    auto local = df.runAtCn(2);
    ASSERT_TRUE(off.ok);
    ASSERT_TRUE(local.ok);
    EXPECT_EQ(off.selected, local.selected);
    EXPECT_NEAR(off.avg, local.avg, 1e-9);
    EXPECT_EQ(off.histogram, local.histogram);
    // Exact expected count from the raw data.
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < rows; i++)
        expect += col_a[i] == 2 ? 1 : 0;
    EXPECT_EQ(off.selected, expect);
}

TEST(DataFrame, OffloadShipsLessDataAtLowSelectivity)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(4),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(5),
        std::make_shared<AggregateOffload>(), client.pid());

    const std::uint64_t rows = 50000;
    Rng rng(22);
    std::vector<std::uint8_t> col_a(rows);
    std::vector<std::int64_t> col_b(rows);
    for (std::uint64_t i = 0; i < rows; i++) {
        col_a[i] =
            static_cast<std::uint8_t>(rng.uniformInt(100)); // 1% each
        col_b[i] = static_cast<std::int64_t>(rng.uniformInt(1000));
    }
    ClioDataFrame df(client, cluster.mn(0).nodeId(), 4, 5);
    ASSERT_TRUE(df.load(col_a, col_b));

    auto off = df.runOffload(7);
    auto local = df.runAtCn(7);
    ASSERT_TRUE(off.ok && local.ok);
    // At ~1% selectivity the offload plan moves far less data (§7.2).
    EXPECT_LT(off.net_bytes * 10, local.net_bytes);
}

TEST(Runner, ComputeAndWaitSteps)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClosedLoopRunner runner(cluster.eventQueue());
    int steps = 0;
    runner.addActor([&]() -> ActorStep {
        if (++steps < 4)
            return ActorStep::compute(1 * kMicrosecond);
        return ActorStep::done();
    });
    const Tick elapsed = runner.run();
    EXPECT_EQ(steps, 4);
    EXPECT_GE(elapsed, 3 * kMicrosecond);
}

} // namespace
} // namespace clio
