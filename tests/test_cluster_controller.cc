/**
 * @file
 * Global controller tests (§4.7): window grants, placement, region
 * migration edge cases, pressure balancing, and the windowed-mode
 * non-collision guarantee.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.hh"

namespace clio {
namespace {

TEST(Controller, WindowsGrantedOnFirstAllocation)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr a = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(a, 0u);
    const std::uint32_t mn = cluster.mnIndexOf(client.mnFor(a));
    EXPECT_GT(cluster.mn(mn).vaAllocator().windowBytes(client.pid()), 0u);
    // The other MN has no window yet for this process.
    EXPECT_EQ(cluster.mn(1 - mn).vaAllocator().windowBytes(client.pid()),
              0u);
}

TEST(Controller, LargeAllocationGetsContiguousRegions)
{
    auto cfg = ModelConfig::prototype();
    cfg.mn_phys_bytes = 8 * GiB;
    Cluster cluster(cfg, 1, 2);
    ClioClient &client = cluster.createClient(0);
    // 2.5 GB > one 1 GB region: the controller must hand out several
    // contiguous regions so the allocation fits one VA range.
    const VirtAddr big = client.ralloc(2560 * MiB).value_or(0);
    ASSERT_NE(big, 0u);
    std::uint64_t v = 42;
    ASSERT_EQ(client.rwrite(big + 2 * GiB, &v, 8), Status::kOk);
    std::uint64_t out = 0;
    ASSERT_EQ(client.rread(big + 2 * GiB, &out, 8), Status::kOk);
    EXPECT_EQ(out, 42u);
}

TEST(Controller, ProcessesGetDisjointVasAcrossMns)
{
    Cluster cluster(ModelConfig::prototype(), 2, 4);
    std::set<std::pair<ProcId, VirtAddr>> seen;
    for (int c = 0; c < 6; c++) {
        ClioClient &client = cluster.createClient(
            static_cast<std::uint32_t>(c % 2));
        std::set<VirtAddr> own;
        for (int i = 0; i < 8; i++) {
            const VirtAddr a = client.ralloc(4 * MiB).value_or(0);
            ASSERT_NE(a, 0u);
            // No VA handed out twice within one process, regardless of
            // which MN served the allocation.
            EXPECT_TRUE(own.insert(a).second);
        }
    }
}

TEST(Controller, MigrationFailsGracefullyWithoutTarget)
{
    // Single MN: nothing to migrate to.
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    client.ralloc(4 * MiB);
    auto report = cluster.migrateRegion(client.pid(), 0);
    EXPECT_FALSE(report.ok);
}

TEST(Controller, MigrationOfUnknownRegionFails)
{
    Cluster cluster(ModelConfig::prototype(), 1, 2);
    ClioClient &client = cluster.createClient(0);
    client.ralloc(4 * MiB);
    auto report = cluster.migrateRegion(client.pid(), 0, 512 * GiB);
    EXPECT_FALSE(report.ok);
}

TEST(Controller, MigrationRollsBackWhenDstFull)
{
    auto cfg = ModelConfig::prototype();
    cfg.dist.region_size = 16 * MiB;
    Cluster cluster(cfg, 1, 2, 32 * MiB); // 8 frames per MN
    ClioClient &client = cluster.createClient(0);

    // Fill BOTH MNs nearly full so no destination can admit a region.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 3; i++) {
        const VirtAddr a = client.ralloc(12 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        std::uint64_t v = i;
        for (std::uint64_t off = 0; off < 12 * MiB; off += 4 * MiB)
            client.rwrite(a + off, &v, 8);
        addrs.push_back(a);
    }
    const std::uint32_t src = cluster.mnIndexOf(client.mnFor(addrs[0]));
    const VirtAddr region =
        addrs[0] / cfg.dist.region_size * cfg.dist.region_size;
    auto report = cluster.migrateRegion(client.pid(), src, region);
    // Whether it succeeded or rolled back, data must stay correct.
    for (int i = 0; i < 3; i++) {
        std::uint64_t out = 99;
        ASSERT_EQ(client.rread(addrs[static_cast<std::size_t>(i)], &out,
                               8),
                  Status::kOk);
        EXPECT_EQ(out, static_cast<std::uint64_t>(i));
    }
    (void)report;
}

TEST(Controller, BalancePressureReducesHotMn)
{
    auto cfg = ModelConfig::prototype();
    cfg.dist.region_size = 16 * MiB;
    Cluster cluster(cfg, 1, 3, 64 * MiB);
    ClioClient &client = cluster.createClient(0);

    // Load up whatever MN gets the allocations.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 8; i++) {
        const VirtAddr a = client.ralloc(8 * MiB).value_or(0);
        ASSERT_NE(a, 0u);
        std::uint64_t v = 1000 + i;
        client.rwrite(a, &v, 8);
        client.rwrite(a + 4 * MiB, &v, 8);
        addrs.push_back(a);
    }
    double max_before = 0;
    for (std::uint32_t m = 0; m < 3; m++)
        max_before = std::max(max_before, cluster.mn(m).memoryPressure());

    auto reports = cluster.balancePressure();
    double max_after = 0;
    for (std::uint32_t m = 0; m < 3; m++)
        max_after = std::max(max_after, cluster.mn(m).memoryPressure());
    if (!reports.empty()) {
        EXPECT_LT(max_after, max_before);
    }
    // Integrity after any movement.
    for (int i = 0; i < 8; i++) {
        std::uint64_t out = 0;
        ASSERT_EQ(client.rread(addrs[static_cast<std::size_t>(i)], &out,
                               8),
                  Status::kOk);
        EXPECT_EQ(out, 1000u + static_cast<unsigned>(i));
    }
}

TEST(Controller, PlacementPrefersLeastPressured)
{
    auto cfg = ModelConfig::prototype();
    Cluster cluster(cfg, 1, 2, 64 * MiB);
    ClioClient &client = cluster.createClient(0);
    // Consume most of one MN by faulting pages.
    const VirtAddr a = client.ralloc(32 * MiB).value_or(0);
    std::uint64_t v = 7;
    for (std::uint64_t off = 0; off < 32 * MiB; off += 4 * MiB)
        client.rwrite(a + off, &v, 8);
    const std::uint32_t loaded = cluster.mnIndexOf(client.mnFor(a));

    // Fresh allocations should now land on the other MN.
    ClioClient &other = cluster.createClient(0);
    const VirtAddr b = other.ralloc(8 * MiB).value_or(0);
    ASSERT_NE(b, 0u);
    EXPECT_NE(cluster.mnIndexOf(other.mnFor(b)), loaded);
}

TEST(Controller, OneRackSpecUsesThePapersPlacement)
{
    // One rack is ClusterSpec{1, ...}: no shard ring, processes homed
    // round-robin, and each allocation on the least-pressured MN.
    Cluster cluster(ModelConfig::prototype(), ClusterSpec{1, 1, 2});
    EXPECT_TRUE(cluster.shardMap().empty());
    ClioClient &first = cluster.createClient(0);
    ClioClient &second = cluster.createClient(0);
    EXPECT_EQ(cluster.homeMnOf(first.pid()), 0u);
    EXPECT_EQ(cluster.homeMnOf(second.pid()), 1u);

    // Load the first process' home MN; its allocation goes elsewhere.
    ASSERT_TRUE(cluster.mn(0).frames().allocate().has_value());
    ASSERT_GT(cluster.mn(0).memoryPressure(),
              cluster.mn(1).memoryPressure());
    const VirtAddr a = first.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(a, 0u);
    EXPECT_EQ(cluster.mnIndexOf(first.mnFor(a)), 1u);
}

} // namespace
} // namespace clio
