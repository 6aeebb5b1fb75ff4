/**
 * @file
 * Edge cases for the §6 applications: fingerprint collisions and
 * deletes in Clio-KV, Clio-MV capacity limits, radix-tree prefix
 * semantics, chase-offload argument validation, YCSB distribution
 * sanity, and Clio-DF empty/degenerate inputs.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "apps/dataframe.hh"
#include "apps/kv_store.hh"
#include "apps/mv_store.hh"
#include "apps/radix_tree.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "devsim/dev_board.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

/** A dev board running one Clio-KV offload, with checked calls. */
struct KvDev
{
    explicit KvDev(std::uint32_t buckets = 4096,
                   std::uint64_t phys_bytes = 0)
        : dev(ModelConfig::prototype(), phys_bytes),
          kv(std::make_shared<ClioKvOffload>(buckets))
    {
        dev.board().registerOffload(ClioKvOffload::descriptor(1), kv);
    }

    bool
    put(const std::string &k, const std::string &v)
    {
        return dev.offloadCall(1, kvEncode(KvOp::kPut, k, v)) ==
               Status::kOk;
    }

    /** The stored value, or nullopt when the key is absent. */
    std::optional<std::string>
    get(const std::string &k)
    {
        std::vector<std::uint8_t> data;
        std::uint64_t found = 0;
        if (dev.offloadCall(1, kvEncode(KvOp::kGet, k), &data, &found) !=
                Status::kOk ||
            found != 1)
            return std::nullopt;
        return std::string(data.begin(), data.end());
    }

    bool
    del(const std::string &k)
    {
        std::uint64_t deleted = 0;
        return dev.offloadCall(1, kvEncode(KvOp::kDelete, k), nullptr,
                               &deleted) == Status::kOk &&
               deleted == 1;
    }

    DevBoard dev;
    std::shared_ptr<ClioKvOffload> kv;
};

/** `n` bytes that differ with `tag`, so a block handed to the wrong
 * key shows up as a wrong value. */
std::string
patterned(std::size_t n, std::uint64_t tag)
{
    std::string v(n, '\0');
    for (std::size_t i = 0; i < n; i++)
        v[i] = static_cast<char>('a' + (tag * 7 + i) % 26);
    return v;
}

TEST(KvEdge, DeleteThenReinsertSameBucket)
{
    // Many keys in 4 buckets: deletes punch holes in slot chains that
    // later puts must reuse.
    KvDev kv(4);
    std::map<std::string, std::string> mirror;
    auto put = [&](const std::string &k, const std::string &v) {
        ASSERT_TRUE(kv.put(k, v));
        mirror[k] = v;
    };
    auto verify = [&] {
        for (const auto &[k, v] : mirror)
            EXPECT_EQ(kv.get(k), v) << k;
    };
    for (int i = 0; i < 60; i++)
        put("key" + std::to_string(i), "v" + std::to_string(i));
    for (int i = 0; i < 60; i += 3) {
        ASSERT_TRUE(kv.del("key" + std::to_string(i)));
        mirror.erase("key" + std::to_string(i));
    }
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

TEST(KvEdge, OverwritesReuseTheReplacedBlock)
{
    // Each overwrite writes a fresh block and flips the entry to it;
    // the block it replaced is the next overwrite's fresh block, so
    // the slab count stays where the first pass left it.
    KvDev kv;
    constexpr int kKeys = 64;
    std::vector<std::string> latest(kKeys);
    auto putAll = [&](int round) {
        for (int k = 0; k < kKeys; k++) {
            latest[k] = patterned(1024, round * kKeys + k);
            ASSERT_TRUE(kv.put("key" + std::to_string(k), latest[k]));
        }
    };
    putAll(0);
    const std::uint64_t slabs = kv.kv->slabsAllocated();
    for (int round = 1; round <= 100; round++) {
        putAll(round);
        ASSERT_EQ(kv.kv->slabsAllocated(), slabs) << "round " << round;
        // Overwrite-only traffic takes a block before it frees one.
        EXPECT_LE(kv.kv->freeBlocks(), 1u);
        for (int k = 0; k < kKeys; k++)
            ASSERT_EQ(kv.get("key" + std::to_string(k)), latest[k]);
    }
    EXPECT_EQ(kv.kv->unreclaimedBlocks(), 0u);
}

TEST(KvEdge, DeleteThenPutReusesTheBlock)
{
    KvDev kv;
    ASSERT_TRUE(kv.put("a", patterned(100, 1)));
    ASSERT_TRUE(kv.put("b", patterned(100, 2)));
    const std::uint64_t slabs = kv.kv->slabsAllocated();
    ASSERT_TRUE(kv.del("a"));
    EXPECT_EQ(kv.kv->freeBlocks(), 1u);
    // A block of another rounded size does not take it...
    ASSERT_TRUE(kv.put("c", patterned(500, 3)));
    EXPECT_EQ(kv.kv->freeBlocks(), 1u);
    // ...a block of the same size does.
    ASSERT_TRUE(kv.put("d", patterned(100, 4)));
    EXPECT_EQ(kv.kv->freeBlocks(), 0u);
    EXPECT_EQ(kv.kv->slabsAllocated(), slabs);
    EXPECT_EQ(kv.get("a"), std::nullopt);
    EXPECT_EQ(kv.get("b"), patterned(100, 2));
    EXPECT_EQ(kv.get("c"), patterned(500, 3));
    EXPECT_EQ(kv.get("d"), patterned(100, 4));
}

TEST(KvEdge, ReuseMatchesAnOrderedMap)
{
    // Random puts, gets and deletes over a few value sizes in a small
    // table (long chains, many holes), checked against std::map: a
    // reused block that still backed a live value would surface as a
    // wrong value. Values of 0 and 48 bytes share one rounded block
    // size, and 104-byte values round to a slot's size, so freed
    // blocks also become chain slots.
    const std::size_t kSizes[] = {0, 48, 104, 1000};
    for (std::uint64_t seed = 1; seed <= 3; seed++) {
        KvDev kv(16);
        Rng rng(seed);
        std::map<std::string, std::string> mirror;
        for (std::uint64_t op = 0; op < 6000; op++) {
            const std::string key =
                "key" + std::to_string(rng.uniformInt(200));
            const std::uint64_t dice = rng.uniformInt(100);
            if (dice < 45) {
                const std::string value =
                    patterned(kSizes[rng.uniformInt(4)], op);
                ASSERT_TRUE(kv.put(key, value));
                mirror[key] = value;
            } else if (dice < 80) {
                const auto it = mirror.find(key);
                ASSERT_EQ(kv.get(key), it == mirror.end()
                                           ? std::nullopt
                                           : std::optional(it->second))
                    << "seed " << seed << " op " << op;
            } else {
                ASSERT_EQ(kv.del(key), mirror.erase(key) == 1);
            }
        }
        for (int k = 0; k < 200; k++) {
            const std::string key = "key" + std::to_string(k);
            const auto it = mirror.find(key);
            ASSERT_EQ(kv.get(key), it == mirror.end()
                                       ? std::nullopt
                                       : std::optional(it->second));
        }
        EXPECT_EQ(kv.kv->unreclaimedBlocks(), 0u);
    }
}

TEST(KvEdge, FullFreeStacksCountDrops)
{
    // More deletes than the stacks hold: the surplus blocks are
    // counted as unreclaimed, never clamped silently, and every
    // value stays correct as the kept blocks are reused.
    KvDev kv;
    constexpr std::uint64_t kCap = ClioKvOffload::kMaxFreeBlocks;
    constexpr std::uint64_t kKeys = kCap + 100;
    for (std::uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(kv.put("key" + std::to_string(k), patterned(64, k)));
    const std::uint64_t slabs = kv.kv->slabsAllocated();
    for (std::uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(kv.del("key" + std::to_string(k)));
    EXPECT_EQ(kv.kv->freeBlocks(), kCap);
    EXPECT_EQ(kv.kv->unreclaimedBlocks(), kKeys - kCap);
    for (std::uint64_t k = 0; k < kKeys; k++)
        ASSERT_TRUE(
            kv.put("key" + std::to_string(k), patterned(64, k + kKeys)));
    EXPECT_EQ(kv.kv->freeBlocks(), 0u);
    EXPECT_EQ(kv.kv->slabsAllocated(), slabs);
    for (std::uint64_t k = 0; k < kKeys; k++)
        ASSERT_EQ(kv.get("key" + std::to_string(k)),
                  patterned(64, k + kKeys));
}

TEST(KvEdge, FailedPutReturnsItsBlock)
{
    // On an 8 MiB board the bucket array and the first slab take every
    // frame, so later slabs are never backed. One bucket chains all
    // keys; once its second slot sits on such a slab, a put faults
    // reading the chain after it took its block. It must hand the block
    // back, so repeated failing puts carve nothing.
    KvDev kv(1, 8 * MiB);
    const std::string value(1 * MiB, 'x');
    int k = 0;
    while (k < 32 && kv.put("key" + std::to_string(k), value))
        k++;
    ASSERT_LT(k, 32) << "no put failed";
    const std::uint64_t slabs = kv.kv->slabsAllocated();
    EXPECT_EQ(kv.kv->freeBlocks(), 1u);
    for (int i = 1; i <= 10; i++) {
        EXPECT_FALSE(kv.put("key" + std::to_string(k + i), value));
        EXPECT_EQ(kv.kv->freeBlocks(), 1u);
    }
    EXPECT_EQ(kv.kv->slabsAllocated(), slabs);
}

TEST(KvEdge, RestartRedeploysAnEmptyStore)
{
    // A restarted board re-deploys the offload into a fresh address
    // space: blocks of the old one, in the slab cursor or on a free
    // stack, must not be handed out again.
    KvDev kv;
    ASSERT_TRUE(kv.put("a", patterned(100, 1)));
    ASSERT_TRUE(kv.put("b", patterned(100, 2)));
    ASSERT_TRUE(kv.del("a"));
    kv.dev.board().crash();
    kv.dev.board().restart();
    EXPECT_EQ(kv.kv->freeBlocks(), 0u);
    EXPECT_EQ(kv.get("b"), std::nullopt);
    ASSERT_TRUE(kv.put("c", patterned(100, 3)));
    ASSERT_TRUE(kv.put("d", patterned(2000, 4)));
    EXPECT_EQ(kv.get("c"), patterned(100, 3));
    EXPECT_EQ(kv.get("d"), patterned(2000, 4));
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
