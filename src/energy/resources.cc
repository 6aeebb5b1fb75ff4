#include "energy/resources.hh"

namespace clio {

std::vector<FpgaUtilization>
clioUtilization(const ModelConfig &cfg, const FpgaDevice &dev)
{
    // --- Virtual memory unit -------------------------------------
    // TLB CAM dominates: comparators + match logic per entry, plus
    // the translation/fault pipeline stages.
    const double tlb_entries = cfg.fast_path.tlb_entries;
    const double virtmem_lut = 17000.0 + tlb_entries * 10.5;
    // BRAM: TLB entry storage (16 B/entry) + page-fault async-buffer
    // FIFO + pipeline staging of one datapath word per stage.
    const double virtmem_bram =
        tlb_entries * 16.0 +
        cfg.slow_path.async_buffer_pages * 8.0 +
        16.0 * (cfg.fast_path.datapath_bits / 8.0) + 128000.0;

    // --- Network stack (transportless, §4.4) ----------------------
    // Just checksum verify + NACK generation + header handling; no
    // sequence numbers, no retransmission buffers.
    const double netstack_lut =
        11400.0 + 4.5 * (cfg.fast_path.datapath_bits / 8.0) * 40.0 / 64.0;
    const double netstack_bram =
        cfg.dedup.entries * 24.0 + // dedup ring (3 x TIMEOUT x BW)
        4.0 * cfg.net.mtu +        // ingress/egress staging
        66000.0;

    // --- Go-Back-N reference transport (paper's synthesis) --------
    // The paper's reported numbers for a transport that keeps per-flow
    // state (sequence numbers + retransmission buffers), which is
    // exactly what Clio's design avoids; not modeled here.
    const double gbn_lut = 26000.0 + 2500.0;
    const double gbn_bram = 64.0 * 2048.0; // per-flow retx buffers

    // --- Clio total ------------------------------------------------
    // VirtMem + NetStack + vendor IPs (PHY, MAC, DDR4 controller,
    // AXI interconnect), which the paper reports dominate the total.
    // Calibrated so the default prototype() configuration lands on the
    // paper's reported totals (31% LUT / 31% BRAM on the ZCU106 part).
    const double vendor_lut = 116900.0;
    const double vendor_bram = 1313800.0;
    const double total_lut = virtmem_lut + netstack_lut + vendor_lut;
    const double total_bram = virtmem_bram + netstack_bram + vendor_bram;

    auto pct = [](double x, double cap) { return 100.0 * x / cap; };
    return {
        {"Clio (Total)", pct(total_lut, dev.logic_cells),
         pct(total_bram, dev.bram_bytes)},
        {"VirtMem", pct(virtmem_lut, dev.logic_cells),
         pct(virtmem_bram, dev.bram_bytes)},
        {"NetStack", pct(netstack_lut, dev.logic_cells),
         pct(netstack_bram, dev.bram_bytes)},
        {"Go-Back-N", pct(gbn_lut, dev.logic_cells),
         pct(gbn_bram, dev.bram_bytes)},
    };
}

std::vector<FpgaUtilization>
offloadUtilization(const std::vector<OffloadDescriptor> &descs,
                   std::uint32_t engines, const FpgaDevice &dev)
{
    auto pct = [](double x, double cap) { return 100.0 * x / cap; };
    std::vector<FpgaUtilization> rows;
    double lut = 0, bram = 0;
    for (const OffloadDescriptor &desc : descs) {
        const double d_lut = desc.lut * engines;
        const double d_bram = desc.bram_bytes;
        rows.push_back({desc.name, pct(d_lut, dev.logic_cells),
                        pct(d_bram, dev.bram_bytes)});
        lut += d_lut;
        bram += d_bram;
    }
    rows.insert(rows.begin(),
                {"Offloads (Total)", pct(lut, dev.logic_cells),
                 pct(bram, dev.bram_bytes)});
    return rows;
}

std::vector<FpgaUtilization>
comparisonUtilization()
{
    // Published numbers quoted by Fig. 22.
    return {
        {"StRoM-RoCEv2", 39.0, 76.0},
        {"Tonic-SACK", 48.0, 40.0},
    };
}

} // namespace clio
