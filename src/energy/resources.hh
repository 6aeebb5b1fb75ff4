/**
 * @file
 * FPGA resource estimator (§7.3, Fig. 22).
 *
 * Estimates LUT and BRAM utilization of Clio's hardware modules on the
 * paper's ZCU106-class FPGA (504K logic cells, 4.75 MB BRAM) as a
 * function of the model configuration (TLB entries, dedup buffer,
 * async buffer, datapath width). Constants are calibrated so the
 * default configuration reproduces the paper's reported numbers:
 * Clio total 31%/31%, VirtMem 5.5%/3% and NetStack 2.3%/1.7%, against
 * StRoM-RoCEv2 (39%/76%) and Tonic-SACK (48%/40%). The Go-Back-N row
 * (5.8%/2.6%) is the paper's reported synthesis of a reference
 * transport this repo does not model.
 */

#ifndef CLIO_ENERGY_RESOURCES_HH
#define CLIO_ENERGY_RESOURCES_HH

#include <string>
#include <vector>

#include "offload/descriptor.hh"
#include "sim/config.hh"

namespace clio {

/** One row of the Fig. 22 utilization table. */
struct FpgaUtilization
{
    std::string name;
    double lut_pct = 0;
    double bram_pct = 0;
};

/** Target device capacity (the paper's ZCU106-class part). */
struct FpgaDevice
{
    double logic_cells = 504000;
    double bram_bytes = 4.75 * 1024 * 1024;
};

/** Estimate Clio's module utilization under `cfg`. Rows: VirtMem,
 * NetStack, Go-Back-N (the paper's reported synthesis, independent of
 * `cfg`), and the Clio total including vendor IPs
 * (PHY/MAC/DDR/interconnect). */
std::vector<FpgaUtilization> clioUtilization(const ModelConfig &cfg,
                                             const FpgaDevice &dev = {});

/** Published utilization of the comparison systems (StRoM RoCEv2 and
 * Tonic selective-ack), from the papers cited in Fig. 22. */
std::vector<FpgaUtilization> comparisonUtilization();

/** Fig. 22 rows for deployed offloads: each offload's compute logic
 * is replicated per engine (LUT × engines) while its staging memory
 * is shared across engines (BRAM counted once). One row per
 * descriptor, plus an "Offloads (Total)" summary row. */
std::vector<FpgaUtilization>
offloadUtilization(const std::vector<OffloadDescriptor> &descs,
                   std::uint32_t engines, const FpgaDevice &dev = {});

} // namespace clio

#endif // CLIO_ENERGY_RESOURCES_HH
