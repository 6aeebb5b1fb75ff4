/**
 * @file
 * Parameterized property sweeps (TEST_P): system invariants must hold
 * across page-table geometries, page sizes, MTUs, and fault-injection
 * intensities — not just at the paper's defaults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/shard_map.hh"
#include "pagetable/hash_page_table.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "valloc/va_allocator.hh"

namespace clio {
namespace {

// ----------------------------------------------------------------
// Page table geometry sweep: overflow-freedom is invariant.
// ----------------------------------------------------------------

using Geometry = std::tuple<std::uint32_t /*bucket_slots*/,
                            double /*overprovision*/>;

class PageTableGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(PageTableGeometry, GuardedInsertsNeverOverflow)
{
    const auto [slots, factor] = GetParam();
    HashPageTable pt(512 * MiB, 4 * MiB, slots, factor);
    VaAllocator va(4 * MiB, 1ull << 40);
    Rng rng(slots * 1000 + static_cast<std::uint64_t>(factor * 10));

    std::uint64_t allocated_pages = 0;
    for (int i = 0; i < 400; i++) {
        const ProcId pid = 1 + static_cast<ProcId>(rng.uniformInt(4));
        const std::uint64_t pages = rng.uniformRange(1, 6);
        auto res = va.allocate(pid, pages * 4 * MiB, kPermReadWrite, pt,
                               50000);
        if (!res)
            break; // table genuinely full: acceptable for tight factors
        for (auto vpn : res->vpns)
            pt.insert(pid, vpn, kPermReadWrite); // must never panic
        allocated_pages += pages;
        ASSERT_LE(pt.maxBucketFill(), slots);
    }
    EXPECT_GT(allocated_pages, 0u);
    EXPECT_LE(pt.liveEntries(), pt.totalSlots());
}

TEST_P(PageTableGeometry, EveryInsertedEntryIsFindable)
{
    const auto [slots, factor] = GetParam();
    HashPageTable pt(256 * MiB, 4 * MiB, slots, factor);
    Rng rng(7);
    std::vector<std::pair<ProcId, std::uint64_t>> inserted;
    for (int i = 0; i < 200; i++) {
        const ProcId pid = 1 + static_cast<ProcId>(rng.uniformInt(3));
        const std::uint64_t vpn = rng.uniformInt(1 << 20);
        std::vector<std::uint64_t> one{vpn};
        if (pt.lookup(pid, vpn) || !pt.canInsert(pid, one))
            continue;
        pt.insert(pid, vpn, kPermRead);
        inserted.emplace_back(pid, vpn);
    }
    for (const auto &[pid, vpn] : inserted) {
        const Pte *pte = pt.lookup(pid, vpn);
        ASSERT_NE(pte, nullptr);
        EXPECT_EQ(pte->pid, pid);
        EXPECT_EQ(pte->vpn, vpn);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PageTableGeometry,
    ::testing::Values(Geometry{4, 1.5}, Geometry{8, 1.25},
                      Geometry{8, 2.0}, Geometry{8, 3.0},
                      Geometry{16, 2.0}, Geometry{2, 4.0}));

// ----------------------------------------------------------------
// Page size sweep: end-to-end correctness at any translation unit.
// ----------------------------------------------------------------

class PageSizeSweep
    : public ::testing::TestWithParam<std::uint64_t /*page size*/>
{
};

TEST_P(PageSizeSweep, EndToEndRoundTripAndFaultCount)
{
    auto cfg = ModelConfig::prototype();
    cfg.page_table.page_size = GetParam();
    cfg.mn_phys_bytes = 256 * MiB;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);

    const std::uint64_t span = 4 * GetParam();
    const VirtAddr addr = client.ralloc(span).value_or(0);
    ASSERT_NE(addr, 0u);

    // Write a pattern straddling the first page boundary.
    std::vector<std::uint8_t> data(
        std::min<std::uint64_t>(GetParam() / 2, 1 * MiB));
    Rng rng(GetParam());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    const VirtAddr at = addr + GetParam() - data.size() / 2;
    ASSERT_EQ(client.rwrite(at, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(at, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
    // Exactly the touched pages faulted.
    EXPECT_EQ(cluster.mn(0).stats().page_faults, 2u);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageSizeSweep,
                         ::testing::Values(64 * KiB, 256 * KiB, 1 * MiB,
                                           4 * MiB, 16 * MiB));

// ----------------------------------------------------------------
// MTU sweep: split/reassembly integrity at any frame size.
// ----------------------------------------------------------------

class MtuSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MtuSweep, MultiPacketIntegrity)
{
    auto cfg = ModelConfig::prototype();
    cfg.net.mtu = GetParam();
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(8 * MiB).value_or(0);

    std::vector<std::uint8_t> data(20 * KiB);
    Rng rng(GetParam());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr, data.data(), data.size()), Status::kOk);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(client.rread(addr, out.data(), out.size()), Status::kOk);
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweep,
                         ::testing::Values(256u, 576u, 1500u, 4096u,
                                           9000u));

// ----------------------------------------------------------------
// Fault-injection sweep: correctness under any loss/corruption mix.
// ----------------------------------------------------------------

using Faults = std::tuple<double /*loss*/, double /*corrupt*/,
                          double /*reorder*/>;

class FaultSweep : public ::testing::TestWithParam<Faults>
{
};

TEST_P(FaultSweep, DataIntegrityAndProgress)
{
    const auto [loss, corrupt, reorder] = GetParam();
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = loss;
    cfg.net.corrupt_rate = corrupt;
    cfg.net.reorder_rate = reorder;
    cfg.clib.max_retries = 12;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(16 * MiB).value_or(0);
    ASSERT_NE(addr, 0u);

    Rng rng(99);
    std::vector<std::uint64_t> mirror(64);
    for (int i = 0; i < 64; i++) {
        mirror[static_cast<std::size_t>(i)] = rng.next();
        ASSERT_EQ(client.rwrite(addr + i * 128,
                                &mirror[static_cast<std::size_t>(i)], 8),
                  Status::kOk);
    }
    // One larger multi-packet write under the same faults. Whole-
    // request retries make big transfers exponentially unlikely to
    // land under heavy per-packet loss (the paper deploys PFC to keep
    // loss rare), so scale the transfer with the injected rate.
    std::vector<std::uint8_t> big(loss + corrupt > 0.1 ? 4 * KiB
                                                       : 24 * KiB);
    for (auto &b : big)
        b = static_cast<std::uint8_t>(rng.next());
    ASSERT_EQ(client.rwrite(addr + 8 * MiB, big.data(), big.size()),
              Status::kOk);

    for (int i = 0; i < 64; i++) {
        std::uint64_t v = 0;
        ASSERT_EQ(client.rread(addr + i * 128, &v, 8), Status::kOk);
        EXPECT_EQ(v, mirror[static_cast<std::size_t>(i)]);
    }
    std::vector<std::uint8_t> out(big.size());
    ASSERT_EQ(client.rread(addr + 8 * MiB, out.data(), out.size()),
              Status::kOk);
    EXPECT_EQ(out, big);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMixes, FaultSweep,
    ::testing::Values(Faults{0, 0, 0}, Faults{0.05, 0, 0},
                      Faults{0, 0.05, 0}, Faults{0, 0, 0.3},
                      Faults{0.05, 0.05, 0.1},
                      Faults{0.15, 0.05, 0.2}));

// ----------------------------------------------------------------
// Dedup-correctness sweep: the T4 guarantee under forced retries.
// ----------------------------------------------------------------

class RetrySweep : public ::testing::TestWithParam<double /*loss*/>
{
};

TEST_P(RetrySweep, CountersNeverDoubleApply)
{
    // Fetch-add increments through a lossy network: every op is
    // retried until acked, and the dedup buffer must ensure each
    // logical increment applies exactly once (T4).
    auto cfg = ModelConfig::prototype();
    cfg.net.loss_rate = GetParam();
    cfg.clib.max_retries = 20;
    Cluster cluster(cfg, 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr counter = client.ralloc(4 * MiB).value_or(0);
    ASSERT_NE(counter, 0u);

    const int increments = 120;
    for (int i = 0; i < increments; i++)
        ASSERT_TRUE(client.rfaa(counter, 1).ok());

    std::uint64_t final_value = 0;
    ASSERT_EQ(client.rread(counter, &final_value, 8), Status::kOk);
    EXPECT_EQ(final_value, static_cast<std::uint64_t>(increments));
    if (GetParam() > 0) {
        EXPECT_GT(cluster.cn(0).stats().retries, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(LossRates, RetrySweep,
                         ::testing::Values(0.0, 0.02, 0.08, 0.15));

// ----------------------------------------------------------------
// Histogram property sweep: the upper-edge reporting contract must
// hold for random sample sets of any magnitude, not just the defaults
// the unit tests pin down.
// ----------------------------------------------------------------

class HistogramSweep : public ::testing::TestWithParam<int /*magnitude*/>
{
};

TEST_P(HistogramSweep, PercentileNeverUnderstatesAndNeverExceedsMax)
{
    // For any sample set and any p: percentile(p) >= the exact order
    // statistic at rank ceil(p/100 * n) (never understates a latency)
    // and <= the exact maximum (clamped); p = 0 is the exact minimum.
    const int magnitude = GetParam();
    Rng rng(991 + static_cast<std::uint64_t>(magnitude));
    for (int round = 0; round < 20; round++) {
        LatencyHistogram h;
        std::vector<Tick> samples;
        const auto n = 1 + rng.uniformInt(400);
        for (std::uint64_t i = 0; i < n; i++) {
            const Tick v = rng.uniformRange(1, Tick{1} << magnitude);
            samples.push_back(v);
            h.record(v);
        }
        std::sort(samples.begin(), samples.end());
        ASSERT_EQ(h.count(), n);
        ASSERT_EQ(h.percentile(0.0), samples.front());
        ASSERT_EQ(h.percentile(100.0), samples.back());
        for (int q = 0; q < 32; q++) {
            const double p = rng.uniformDouble() * 100.0;
            const Tick reported = h.percentile(p);
            auto rank = static_cast<std::uint64_t>(
                std::ceil(p / 100.0 * static_cast<double>(n)));
            if (rank == 0)
                rank = 1;
            const Tick exact = samples[rank - 1];
            ASSERT_GE(reported, exact)
                << "p=" << p << " n=" << n << " magnitude=" << magnitude;
            ASSERT_LE(reported, samples.back())
                << "p=" << p << " n=" << n << " magnitude=" << magnitude;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramSweep,
                         ::testing::Values(8, 20, 34, 50, 63));

// ----------------------------------------------------------------
// Shard-map property sweep: consistent-hashing guarantees that the
// recovery path (MN crash → removeMn, rejoin → addMn) leans on.
// ----------------------------------------------------------------

/** Sampled (pid, region) keyspace: placements under the ring. */
std::vector<std::uint32_t>
placements(const ShardMap &map, std::size_t keys)
{
    std::vector<std::uint32_t> out;
    out.reserve(keys);
    for (std::size_t k = 0; k < keys; k++) {
        const auto pid = static_cast<ProcId>(1 + k / 8);
        out.push_back(map.ownerOf(pid, k % 8));
    }
    return out;
}

class ShardMapSweep
    : public ::testing::TestWithParam<std::uint32_t /*initial MNs*/>
{
};

TEST_P(ShardMapSweep, AddMovesBoundedFractionOntoNewMn)
{
    const std::uint32_t m = GetParam();
    constexpr std::size_t kKeys = 4000;
    ShardMap map;
    for (std::uint32_t i = 0; i < m; i++)
        map.addMn(i, i % 3);
    const auto before = placements(map, kKeys);

    map.addMn(m, m % 3);
    const auto after = placements(map, kKeys);

    std::size_t moved = 0;
    for (std::size_t k = 0; k < kKeys; k++) {
        if (after[k] != before[k]) {
            moved++;
            // Consistent hashing: a key only ever moves TO the new
            // member, never between surviving ones.
            EXPECT_EQ(after[k], m) << "key " << k << " reshuffled "
                                   << before[k] << "->" << after[k];
        }
    }
    // Expected share is 1/(m+1); allow generous vnode-variance slack
    // but fail on anything resembling a rehash-everything design.
    const double bound = 2.5 * static_cast<double>(kKeys) /
                         static_cast<double>(m + 1);
    EXPECT_LE(static_cast<double>(moved), bound) << "m=" << m;
    EXPECT_GT(moved, 0u);
}

TEST_P(ShardMapSweep, RemoveRestoresPlacementsExactly)
{
    // Crash + rejoin must be a placement no-op: the ring points are
    // deterministic per MN, so removeMn(x) followed by addMn(x) gives
    // back byte-identical placements. This is what lets the cluster
    // re-home every process to its original MN after a restart.
    const std::uint32_t m = GetParam();
    constexpr std::size_t kKeys = 4000;
    ShardMap map;
    for (std::uint32_t i = 0; i < m; i++)
        map.addMn(i, i % 3);
    const auto before = placements(map, kKeys);

    Rng rng(m * 31 + 5);
    for (int round = 0; round < 6; round++) {
        const auto victim =
            static_cast<std::uint32_t>(rng.uniformInt(m));
        map.removeMn(victim);
        // While the victim is out, its keys fall to ring successors;
        // every key still has an owner among the survivors.
        if (map.mnCount() > 0) {
            for (const auto owner : placements(map, kKeys))
                EXPECT_NE(owner, victim);
        }
        map.addMn(victim, victim % 3);
        EXPECT_EQ(placements(map, kKeys), before) << "round " << round;
    }
}

TEST_P(ShardMapSweep, MembershipOrderDoesNotMatter)
{
    // Placements depend only on the member SET, not on join order —
    // two controllers that converged on the same membership agree on
    // every placement.
    const std::uint32_t m = GetParam();
    ShardMap forward;
    ShardMap reverse;
    for (std::uint32_t i = 0; i < m; i++)
        forward.addMn(i, i % 3);
    for (std::uint32_t i = m; i > 0; i--)
        reverse.addMn(i - 1, (i - 1) % 3);
    EXPECT_EQ(placements(forward, 2000), placements(reverse, 2000));
}

TEST_P(ShardMapSweep, RackPreferenceHoldsWheneverRackHasMns)
{
    // ownerNear must return a rack-local MN for every key whenever the
    // preferred rack's sub-ring is non-empty — the paper's CNs always
    // get same-ToR memory if their rack hosts any MN at all.
    const std::uint32_t m = GetParam();
    constexpr RackId kRacks = 3;
    ShardMap map;
    for (std::uint32_t i = 0; i < m; i++)
        map.addMn(i, i % kRacks);

    std::vector<bool> rack_has_mn(kRacks, false);
    for (std::uint32_t i = 0; i < m; i++)
        rack_has_mn[i % kRacks] = true;

    for (ProcId pid = 1; pid <= 50; pid++) {
        for (std::uint64_t region = 0; region < 8; region++) {
            for (RackId rack = 0; rack < kRacks; rack++) {
                const std::uint32_t owner =
                    map.ownerNear(pid, region, rack);
                ASSERT_LT(owner, m);
                if (rack_has_mn[rack]) {
                    EXPECT_EQ(map.rackOf(owner), rack)
                        << "pid=" << pid << " region=" << region
                        << " rack=" << rack << " owner=" << owner;
                }
            }
        }
    }

    // Empty a rack one MN at a time: preference must hold right up
    // until the sub-ring is empty, then spill remotely (still valid).
    for (std::uint32_t i = 0; i < m; i += kRacks)
        map.removeMn(i); // removes every rack-0 MN
    if (m >= kRacks) {
        for (ProcId pid = 1; pid <= 20; pid++) {
            const std::uint32_t owner = map.ownerNear(pid, 0, 0);
            EXPECT_NE(map.rackOf(owner), 0u); // rack 0 has no MNs left
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, ShardMapSweep,
                         ::testing::Values(1u, 2u, 3u, 6u, 12u, 24u));

TEST(ShardMapRings, OwnerNearIsOwnerOfOnTheRacksOwnRing)
{
    // ownerNear(key, rack) is the key's owner on a ring that holds only
    // that rack's MNs (same points, since they depend only on the MN),
    // and the whole ring's owner for a rack with no MN. Random rings:
    // 1-6 racks, 1-24 MNs, 1-64 vnodes, random removals, so some racks
    // end up empty.
    Rng rng(27);
    for (int round = 0; round < 200; round++) {
        const auto racks = static_cast<RackId>(1 + rng.uniformInt(6));
        const auto mns = static_cast<std::uint32_t>(1 + rng.uniformInt(24));
        const auto vnodes =
            static_cast<std::uint32_t>(1 + rng.uniformInt(64));
        ShardMap map(vnodes);
        std::vector<std::pair<std::uint32_t, RackId>> members;
        for (std::uint32_t mn = 0; mn < mns; mn++) {
            const auto rack = static_cast<RackId>(rng.uniformInt(racks));
            map.addMn(mn, rack);
            members.emplace_back(mn, rack);
        }
        for (std::size_t i = members.size(); i > 1; i--) {
            if (rng.chance(0.3)) {
                map.removeMn(members[i - 1].first);
                members.erase(members.begin() +
                              static_cast<std::ptrdiff_t>(i - 1));
            }
        }
        for (RackId rack = 0; rack < racks; rack++) {
            ShardMap local(vnodes);
            for (const auto &[mn, r] : members) {
                if (r == rack)
                    local.addMn(mn, r);
            }
            const ShardMap &expect = local.empty() ? map : local;
            for (int k = 0; k < 100; k++) {
                const auto pid = static_cast<ProcId>(rng.uniformInt(4096));
                const std::uint64_t region = rng.uniformInt(64);
                ASSERT_EQ(map.ownerNear(pid, region, rack),
                          expect.ownerOf(pid, region))
                    << "round " << round << " rack " << rack;
            }
        }
    }
}

} // namespace
} // namespace clio
