/**
 * @file
 * Energy accounting (§7.3, Fig. 21) and FPGA resource estimation
 * (Fig. 22): MN power selection per system, per-request energy math,
 * and the utilization estimator's calibration against the paper's
 * reported ZCU106 numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "energy/energy.hh"
#include "energy/resources.hh"

namespace clio {
namespace {

const FpgaUtilization &
rowNamed(const std::vector<FpgaUtilization> &rows, const std::string &name)
{
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const FpgaUtilization &r) {
                               return r.name == name;
                           });
    EXPECT_NE(it, rows.end()) << "missing row " << name;
    return *it;
}

TEST(Energy, SystemNamesAreUnique)
{
    const SystemKind kinds[] = {
        SystemKind::kClio,   SystemKind::kClover,
        SystemKind::kHerd,   SystemKind::kHerdBluefield,
        SystemKind::kLegoOs, SystemKind::kRdma,
    };
    std::vector<std::string> names;
    for (SystemKind k : kinds)
        names.emplace_back(systemName(k));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Energy, MnPowerMatchesHardware)
{
    const EnergyConfig cfg;
    // The CBoard is the cheapest active MN; CPU-server MNs the dearest.
    EXPECT_DOUBLE_EQ(mnPowerWatts(cfg, SystemKind::kClio),
                     cfg.cboard_watts);
    EXPECT_DOUBLE_EQ(mnPowerWatts(cfg, SystemKind::kClover),
                     cfg.passive_mn_watts);
    EXPECT_DOUBLE_EQ(mnPowerWatts(cfg, SystemKind::kHerdBluefield),
                     cfg.bluefield_watts);
    for (SystemKind k : {SystemKind::kHerd, SystemKind::kLegoOs,
                         SystemKind::kRdma})
        EXPECT_DOUBLE_EQ(mnPowerWatts(cfg, k), cfg.mn_server_watts);
    EXPECT_LT(mnPowerWatts(cfg, SystemKind::kClio),
              mnPowerWatts(cfg, SystemKind::kHerd));
}

TEST(Energy, CnShareChargesPassiveMemorySystems)
{
    // §2.3: passive-memory designs push management onto CN CPUs.
    EXPECT_GT(cnShareMultiplier(SystemKind::kClover), 1.0);
    EXPECT_GT(cnShareMultiplier(SystemKind::kRdma), 1.0);
    EXPECT_DOUBLE_EQ(cnShareMultiplier(SystemKind::kClio), 1.0);
    EXPECT_DOUBLE_EQ(cnShareMultiplier(SystemKind::kHerd), 1.0);
}

TEST(Energy, PerRequestEnergyMath)
{
    EnergyConfig cfg;
    // 1 simulated second serving 1000 requests => 1 ms of node time
    // per request; mJ = W * s * 1e3.
    const auto e = perRequestEnergy(cfg, SystemKind::kClio, kSecond, 1000);
    EXPECT_NEAR(e.mn_mj, cfg.cboard_watts * 1e-3 * 1e3, 1e-9);
    EXPECT_NEAR(e.cn_mj,
                cfg.cn_server_watts * cfg.cn_core_fraction * 1e-3 * 1e3,
                1e-9);
    EXPECT_NEAR(e.total(), e.cn_mj + e.mn_mj, 1e-12);
}

TEST(Energy, SlowerRunsBurnMoreEnergy)
{
    // HERD-BF is "low power" yet loses on energy/request once its
    // runtime stretches (the Fig. 21 headline).
    const EnergyConfig cfg;
    const auto fast =
        perRequestEnergy(cfg, SystemKind::kHerdBluefield, kSecond, 1000);
    const auto slow = perRequestEnergy(cfg, SystemKind::kHerdBluefield,
                                       4 * kSecond, 1000);
    EXPECT_NEAR(slow.total(), 4.0 * fast.total(), 1e-9);
    const auto clio_slow =
        perRequestEnergy(cfg, SystemKind::kClio, 4 * kSecond, 1000);
    EXPECT_LT(clio_slow.mn_mj, slow.mn_mj);
}

TEST(Resources, DefaultConfigReproducesPaperFig22)
{
    const auto rows = clioUtilization(ModelConfig::prototype());
    const auto &total = rowNamed(rows, "Clio (Total)");
    const auto &virtmem = rowNamed(rows, "VirtMem");
    const auto &netstack = rowNamed(rows, "NetStack");
    const auto &gbn = rowNamed(rows, "Go-Back-N");
    // Paper: Clio 31%/31%, VirtMem 5.5%/3%, NetStack 2.3%/1.7%,
    // Go-Back-N 5.8%/2.6%. Allow a calibration tolerance.
    EXPECT_NEAR(total.lut_pct, 31.0, 1.5);
    EXPECT_NEAR(total.bram_pct, 31.0, 1.5);
    EXPECT_NEAR(virtmem.lut_pct, 5.5, 0.5);
    EXPECT_NEAR(virtmem.bram_pct, 3.0, 0.5);
    EXPECT_NEAR(netstack.lut_pct, 2.3, 0.3);
    EXPECT_NEAR(netstack.bram_pct, 1.7, 0.3);
    EXPECT_NEAR(gbn.lut_pct, 5.8, 0.5);
    EXPECT_NEAR(gbn.bram_pct, 2.6, 0.5);
}

TEST(Resources, UtilizationScalesWithTlbAndDedup)
{
    auto small = ModelConfig::prototype();
    auto big = ModelConfig::prototype();
    big.fast_path.tlb_entries = small.fast_path.tlb_entries * 4;
    big.dedup.entries = small.dedup.entries * 4;
    const auto s = clioUtilization(small);
    const auto b = clioUtilization(big);
    EXPECT_GT(rowNamed(b, "VirtMem").lut_pct,
              rowNamed(s, "VirtMem").lut_pct);
    EXPECT_GT(rowNamed(b, "VirtMem").bram_pct,
              rowNamed(s, "VirtMem").bram_pct);
    EXPECT_GT(rowNamed(b, "NetStack").bram_pct,
              rowNamed(s, "NetStack").bram_pct);
    // The Go-Back-N reference block is config independent.
    EXPECT_DOUBLE_EQ(rowNamed(b, "Go-Back-N").lut_pct,
                     rowNamed(s, "Go-Back-N").lut_pct);
}

TEST(Resources, ComparisonRowsQuotePublishedNumbers)
{
    const auto rows = comparisonUtilization();
    ASSERT_EQ(rows.size(), 2u);
    const auto &strom = rowNamed(rows, "StRoM-RoCEv2");
    const auto &tonic = rowNamed(rows, "Tonic-SACK");
    EXPECT_DOUBLE_EQ(strom.lut_pct, 39.0);
    EXPECT_DOUBLE_EQ(strom.bram_pct, 76.0);
    EXPECT_DOUBLE_EQ(tonic.lut_pct, 48.0);
    EXPECT_DOUBLE_EQ(tonic.bram_pct, 40.0);
    // Clio's whole FPGA budget undercuts both published transports.
    const auto clio_total =
        rowNamed(clioUtilization(ModelConfig::prototype()), "Clio (Total)");
    EXPECT_LT(clio_total.bram_pct, strom.bram_pct);
    EXPECT_LT(clio_total.bram_pct, tonic.bram_pct);
}

TEST(Resources, OffloadRowsScaleLutPerEngineBramShared)
{
    const OffloadDescriptor a = {
        .id = 1, .name = "chase", .lut = 5000.0, .bram_bytes = 2048.0};
    const OffloadDescriptor b = {
        .id = 2, .name = "kv", .lut = 10000.0, .bram_bytes = 4096.0};
    const FpgaDevice dev;
    const auto one = offloadUtilization({a, b}, 1, dev);
    const auto two = offloadUtilization({a, b}, 2, dev);
    // Compute logic is replicated per engine...
    EXPECT_DOUBLE_EQ(rowNamed(two, "chase").lut_pct,
                     2.0 * rowNamed(one, "chase").lut_pct);
    // ...staging memory is shared across engines.
    EXPECT_DOUBLE_EQ(rowNamed(two, "kv").bram_pct,
                     rowNamed(one, "kv").bram_pct);
    const auto &total = rowNamed(two, "Offloads (Total)");
    EXPECT_DOUBLE_EQ(total.lut_pct,
                     rowNamed(two, "chase").lut_pct +
                         rowNamed(two, "kv").lut_pct);
}

TEST(Energy, OffloadEnergyTracksEngineBusyTime)
{
    EnergyConfig cfg;
    // 1 ms of engine occupancy at offload_engine_watts.
    const double mj = offloadEnergyMj(cfg, kMillisecond);
    EXPECT_DOUBLE_EQ(mj, cfg.offload_engine_watts * 1e-3 * 1e3);
    EXPECT_GT(offloadEnergyMj(cfg, 2 * kMillisecond), mj);
}

} // namespace
} // namespace clio
