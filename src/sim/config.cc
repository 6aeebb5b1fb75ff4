#include "sim/config.hh"

#include "sim/rng.hh"

namespace clio {

ModelConfig
ModelConfig::prototype()
{
    // The defaults in the struct definitions *are* the ZCU106 prototype.
    ModelConfig cfg;
    cfg.seed = defaultSeed(cfg.seed);
    return cfg;
}

ModelConfig
ModelConfig::asicProjection()
{
    ModelConfig cfg = prototype();
    // 2 GHz ASIC clock (§7.1 latency-variation projection).
    cfg.fast_path.cycle = 500 * kPicosecond;
    // Server-grade DDR controller instead of the slow board controller.
    cfg.dram.access_latency = cfg.dram.server_access_latency;
    cfg.dram.bandwidth_bps = 400ull * 1000 * 1000 * 1000;
    // ASIC-integrated MAC instead of vendor FPGA IP.
    cfg.fast_path.mac_latency = 60 * kNanosecond;
    // Hardened DMA engines lose the FPGA IP setup penalty.
    cfg.fast_path.dma_read_setup = 4 * kNanosecond;
    cfg.fast_path.dma_write_setup = 2 * kNanosecond;
    // 100 Gbps ports on the target CBoard (R3).
    cfg.net.link_bandwidth_bps = 100ull * 1000 * 1000 * 1000;
    return cfg;
}

} // namespace clio
