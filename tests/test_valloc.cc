/**
 * @file
 * Unit + property tests for the overflow-free VA allocator (§4.2),
 * including the Fig. 13 retry behaviour near full utilization.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "pagetable/hash_page_table.hh"
#include "sim/rng.hh"
#include "valloc/va_allocator.hh"

namespace clio {
namespace {

constexpr std::uint64_t kPage = 4 * MiB;

struct Fixture
{
    HashPageTable pt;
    VaAllocator va;

    explicit Fixture(std::uint64_t phys = 2 * GiB)
        : pt(phys, kPage, 8, 2.0), va(kPage, 1ull << 40)
    {
    }

    // Allocate and actually insert the PTEs (as the slow path would).
    std::optional<VaAllocResult>
    alloc(ProcId pid, std::uint64_t size, std::uint8_t perm = kPermReadWrite)
    {
        auto res = va.allocate(pid, size, perm, pt);
        if (res) {
            for (auto vpn : res->vpns)
                pt.insert(pid, vpn, perm);
        }
        return res;
    }

    void
    freeAll(ProcId pid, VirtAddr addr)
    {
        auto res = va.free(pid, addr);
        ASSERT_TRUE(res.has_value());
        for (auto vpn : res->vpns)
            pt.remove(pid, vpn);
    }
};

TEST(VaAllocator, BasicAllocation)
{
    Fixture f;
    auto res = f.alloc(1, 10 * MiB);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->vpns.size(), 3u); // 10 MB rounds to 3 x 4 MB pages
    EXPECT_EQ(res->addr % kPage, 0u);
    EXPECT_GE(res->addr, kPage); // page 0 reserved
    EXPECT_EQ(f.va.allocatedBytes(1), 12 * MiB);
}

TEST(VaAllocator, DistinctRangesPerProcess)
{
    Fixture f;
    auto a = f.alloc(1, kPage);
    auto b = f.alloc(1, kPage);
    ASSERT_TRUE(a && b);
    EXPECT_NE(a->addr, b->addr);
    // Different processes may reuse the same VA (separate RASs).
    auto c = f.alloc(2, kPage);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->addr, a->addr);
}

TEST(VaAllocator, FreeAndReuse)
{
    Fixture f;
    auto a = f.alloc(1, 2 * kPage);
    ASSERT_TRUE(a.has_value());
    f.freeAll(1, a->addr);
    EXPECT_EQ(f.va.allocatedBytes(1), 0u);
    EXPECT_EQ(f.pt.liveEntries(), 0u);
    // Freeing twice fails gracefully.
    EXPECT_FALSE(f.va.free(1, a->addr).has_value());
    // Freeing a non-start address fails gracefully.
    auto b = f.alloc(1, 2 * kPage);
    ASSERT_TRUE(b.has_value());
    EXPECT_FALSE(f.va.free(1, b->addr + kPage).has_value());
}

TEST(VaAllocator, RegionOfFindsContainingRegion)
{
    Fixture f;
    auto a = f.alloc(1, 3 * kPage, kPermRead);
    ASSERT_TRUE(a.has_value());
    const VaRegion *region = f.va.regionOf(1, a->addr + kPage + 17);
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->start, a->addr);
    EXPECT_EQ(region->perm, kPermRead);
    EXPECT_EQ(f.va.regionOf(1, a->addr + 3 * kPage), nullptr);
    EXPECT_EQ(f.va.regionOf(2, a->addr), nullptr);
}

TEST(VaAllocator, NoRetriesWhenNearlyEmpty)
{
    // §7.1: "no conflicts when memory is below half utilized".
    Fixture f;
    std::uint32_t total_retries = 0;
    // Fill to ~45% of the 512 physical pages.
    for (int i = 0; i < 230; i++) {
        auto res = f.alloc(static_cast<ProcId>(1 + i % 4), kPage);
        ASSERT_TRUE(res.has_value());
        total_retries += res->retries;
    }
    EXPECT_EQ(total_retries, 0u);
}

TEST(VaAllocator, RetriesRiseNearFullButAllocationSucceeds)
{
    Fixture f;
    // Fill to ~95% with single pages.
    std::uint32_t late_retries = 0;
    for (int i = 0; i < 486; i++) {
        auto res = f.alloc(1, kPage);
        ASSERT_TRUE(res.has_value()) << "allocation " << i;
        if (i >= 460)
            late_retries += res->retries;
    }
    // Retries near full are expected but bounded (paper: up to ~60).
    EXPECT_LT(late_retries, 486u * 100);
}

TEST(VaAllocator, OverflowFreeInvariantHolds)
{
    // Property: after any admitted allocation, no bucket exceeds K.
    Fixture f;
    Rng rng(5);
    for (int i = 0; i < 300; i++) {
        const std::uint64_t pages = rng.uniformRange(1, 4);
        auto res = f.alloc(static_cast<ProcId>(1 + rng.uniformInt(6)),
                           pages * kPage);
        if (!res)
            break;
        EXPECT_LE(f.pt.maxBucketFill(), f.pt.bucketSlots());
    }
}

TEST(VaAllocator, ChurnPropertyNoLeaksNoOverlap)
{
    Fixture f;
    Rng rng(11);
    struct Live
    {
        VirtAddr addr;
        std::uint64_t pages;
    };
    std::vector<Live> live;
    for (int step = 0; step < 400; step++) {
        if (live.size() > 40 || (rng.chance(0.4) && !live.empty())) {
            const std::size_t idx = rng.uniformInt(live.size());
            f.freeAll(1, live[idx].addr);
            live.erase(live.begin() + static_cast<long>(idx));
        } else {
            const std::uint64_t pages = rng.uniformRange(1, 8);
            auto res = f.alloc(1, pages * kPage);
            if (res)
                live.push_back({res->addr, pages});
        }
        // No two live ranges overlap.
        std::set<std::uint64_t> claimed;
        for (const auto &l : live) {
            for (std::uint64_t p = 0; p < l.pages; p++) {
                EXPECT_TRUE(
                    claimed.insert(l.addr / kPage + p).second);
            }
        }
    }
    // PTE count matches live pages exactly (no leaks).
    std::uint64_t expected = 0;
    for (const auto &l : live)
        expected += l.pages;
    EXPECT_EQ(f.pt.liveEntries(), expected);
}

TEST(VaAllocator, ExhaustionReturnsNullopt)
{
    // Tiny table: 16 MiB phys -> 4 frames -> 8 slots.
    Fixture f(16 * MiB);
    int got = 0;
    while (f.alloc(1, kPage))
        got++;
    EXPECT_EQ(got, 8); // all slots used, then failure
    EXPECT_LE(f.pt.liveEntries(), f.pt.totalSlots());
}

TEST(VaAllocator, RemoveProcessDropsState)
{
    Fixture f;
    auto a = f.alloc(1, kPage);
    ASSERT_TRUE(a.has_value());
    f.va.removeProcess(1);
    EXPECT_EQ(f.va.allocatedBytes(1), 0u);
    EXPECT_FALSE(f.va.free(1, a->addr).has_value());
}

} // namespace
} // namespace clio
