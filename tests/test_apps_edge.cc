/**
 * @file
 * Edge cases for the §6 applications: fingerprint collisions and
 * deletes in Clio-KV, Clio-MV capacity limits, radix-tree prefix
 * semantics, chase-offload argument validation, YCSB distribution
 * sanity, and Clio-DF empty/degenerate inputs.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/dataframe.hh"
#include "apps/kv_store.hh"
#include "apps/mv_store.hh"
#include "apps/radix_tree.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "devsim/dev_board.hh"

namespace clio {
namespace {

TEST(KvEdge, DeleteThenReinsertSameBucket)
{
    DevBoard dev;
    dev.board().registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>(4));
    // Many keys in 4 buckets: deletes punch holes in slot chains that
    // later puts must reuse.
    std::map<std::string, std::string> mirror;
    auto put = [&](const std::string &k, const std::string &v) {
        ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, k, v)),
                  Status::kOk);
        mirror[k] = v;
    };
    auto del = [&](const std::string &k) {
        std::uint64_t deleted = 0;
        ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kDelete, k), nullptr,
                                  &deleted),
                  Status::kOk);
        mirror.erase(k);
    };
    auto verify = [&] {
        for (const auto &[k, v] : mirror) {
            std::vector<std::uint8_t> data;
            std::uint64_t found = 0;
            ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kGet, k), &data,
                                      &found),
                      Status::kOk);
            ASSERT_EQ(found, 1u) << k;
            EXPECT_EQ(std::string(data.begin(), data.end()), v);
        }
    };
    for (int i = 0; i < 60; i++)
        put("key" + std::to_string(i), "v" + std::to_string(i));
    for (int i = 0; i < 60; i += 3)
        del("key" + std::to_string(i));
    verify();
    for (int i = 0; i < 60; i += 3)
        put("key" + std::to_string(i), "re" + std::to_string(i));
    verify();
}

TEST(KvEdge, EmptyValueAndEmptyishKeys)
{
    DevBoard dev;
    dev.board().registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>());
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kPut, "k", "")),
              Status::kOk);
    std::vector<std::uint8_t> data{1, 2, 3};
    std::uint64_t found = 0;
    ASSERT_EQ(dev.offloadCall(1, kvEncode(KvOp::kGet, "k"), &data,
                              &found),
              Status::kOk);
    EXPECT_EQ(found, 1u);
    EXPECT_TRUE(data.empty());
}

TEST(KvEdge, MalformedArgumentsRejected)
{
    DevBoard dev;
    dev.board().registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>());
    EXPECT_EQ(dev.offloadCall(1, {}), Status::kOffloadError);
    EXPECT_EQ(dev.offloadCall(1, {0x01}), Status::kOffloadError);
    // Truncated put (klen says 10, bytes missing).
    EXPECT_EQ(dev.offloadCall(1, {0x01, 10, 0}), Status::kOffloadError);
}

TEST(MvEdge, CapacityLimits)
{
    DevBoard dev;
    dev.board().registerOffload({.id = 2},
                                std::make_shared<ClioMvOffload>(16, 2, 3));
    std::uint64_t id1 = 0, id2 = 0, v = 0;
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate), nullptr, &id1),
              Status::kOk);
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate), nullptr, &id2),
              Status::kOk);
    // Table full.
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kCreate)),
              Status::kOutOfMemory);
    // Version array full after 3 appends.
    const std::string val(16, 'x');
    for (int i = 0; i < 3; i++) {
        EXPECT_EQ(dev.offloadCall(
                      2, mvEncode(MvOp::kAppend, id1, 0, val), nullptr,
                      &v),
                  Status::kOk);
    }
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kAppend, id1, 0, val)),
              Status::kOutOfMemory);
    // Wrong value size and unknown object are rejected.
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kAppend, id1, 0, "shrt")),
              Status::kOffloadError);
    EXPECT_EQ(dev.offloadCall(2, mvEncode(MvOp::kReadLatest, 77)),
              Status::kOffloadError);
}

TEST(RadixEdge, PrefixAndEmptyKeySemantics)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(3),
        std::make_shared<PointerChaseOffload>(), client.pid());
    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), 3, 8 * MiB);

    ASSERT_TRUE(tree.insert("ab", 1));
    ASSERT_TRUE(tree.insert("abcd", 2));
    // "abc" exists as an interior path but has no terminal value.
    EXPECT_FALSE(tree.searchOffload("abc").value.has_value());
    EXPECT_EQ(tree.searchOffload("ab").value.value_or(0), 1u);
    EXPECT_EQ(tree.searchOffload("abcd").value.value_or(0), 2u);
    // Overwriting a key's value.
    ASSERT_TRUE(tree.insert("ab", 9));
    EXPECT_EQ(tree.searchOffload("ab").value.value_or(0), 9u);
}

TEST(RadixEdge, ChaseOffloadValidatesArguments)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(3),
        std::make_shared<PointerChaseOffload>(), client.pid());
    // Wrong-size argument blob.
    EXPECT_EQ(client.rcall(cluster.mn(0).nodeId(), 3, {1, 2, 3}).status(),
              Status::kOffloadError);
    // Offsets outside the node are rejected, not read.
    PointerChaseOffload::Args args;
    args.start = 4 * MiB;
    args.value_offset = 60; // 60 + 8 > 32
    args.node_bytes = 32;
    EXPECT_EQ(client
                  .rcall(cluster.mn(0).nodeId(), 3,
                         PointerChaseOffload::encode(args))
                  .status(),
              Status::kOffloadError);
    // Chasing into unallocated memory faults cleanly.
    args.value_offset = 16;
    args.next_offset = 0;
    EXPECT_EQ(client
                  .rcall(cluster.mn(0).nodeId(), 3,
                         PointerChaseOffload::encode(args))
                  .status(),
              Status::kBadAddress);
}

TEST(YcsbEdge, MixRatiosAndDeterminism)
{
    YcsbGenerator a(1000, YcsbWorkload::kA, true, 0.99, 1);
    YcsbGenerator a2(1000, YcsbWorkload::kA, true, 0.99, 1);
    int sets = 0;
    for (int i = 0; i < 10000; i++) {
        const YcsbOp op1 = a.next();
        const YcsbOp op2 = a2.next();
        EXPECT_EQ(op1.is_set, op2.is_set);
        EXPECT_EQ(op1.key_index, op2.key_index);
        sets += op1.is_set;
    }
    EXPECT_NEAR(sets, 5000, 300);

    YcsbGenerator c(1000, YcsbWorkload::kC);
    for (int i = 0; i < 1000; i++)
        EXPECT_FALSE(c.next().is_set);

    EXPECT_EQ(YcsbGenerator::keyString(42), "user0000000042");
}

TEST(DataFrameEdge, EmptySelectionAndFullSelection)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        SelectOffload::descriptor(4),
        std::make_shared<SelectOffload>(), client.pid());
    cluster.mn(0).registerOffloadShared(
        AggregateOffload::descriptor(5),
        std::make_shared<AggregateOffload>(), client.pid());

    const std::uint64_t rows = 5000;
    std::vector<std::uint8_t> col_a(rows, 1);
    std::vector<std::int64_t> col_b(rows, 10);
    ClioDataFrame df(client, cluster.mn(0).nodeId(), 4, 5);
    ASSERT_TRUE(df.load(col_a, col_b));

    auto none = df.runOffload(0); // matches nothing
    ASSERT_TRUE(none.ok);
    EXPECT_EQ(none.selected, 0u);
    EXPECT_EQ(none.avg, 0.0);

    auto all = df.runOffload(1); // matches everything
    ASSERT_TRUE(all.ok);
    EXPECT_EQ(all.selected, rows);
    EXPECT_DOUBLE_EQ(all.avg, 10.0);
    EXPECT_EQ(all.histogram[0], rows); // constant values: one bin
}

} // namespace
} // namespace clio
