/**
 * @file
 * Fig. 14: CBoard-side latency breakdown for 4 B / 1 KB reads and
 * writes: wire serialization, on-board interconnect/DMA setup, TLB
 * lookup, TLB-miss DRAM fetch, and the data DRAM access. Values come
 * from the same calibrated constants the simulator charges, plus a
 * measured cross-check of the end-to-end totals. The miss row measures
 * a forced TLB miss, and the bench fails unless that costs exactly one
 * DRAM access more than the hit row.
 */

#include "cluster/cluster.hh"
#include "harness.hh"

using namespace clio;

namespace {

struct Breakdown
{
    double wire_ns;
    double interconn_ns;
    double tlb_hit_ns;
    double tlb_miss_ns;
    double ddr_ns;
};

Breakdown
breakdown(const ModelConfig &cfg, std::uint64_t size, bool is_write,
          bool tlb_miss)
{
    Breakdown b{};
    // Serialization of the payload-bearing direction at the MN port.
    const std::uint64_t wire_bytes = size + kPacketHeaderBytes;
    b.wire_ns = ticksToNs(wire_bytes *
                          ticksPerByte(cfg.net.link_bandwidth_bps)) +
                ticksToNs(cfg.fast_path.mac_latency);
    b.interconn_ns = ticksToNs(is_write ? cfg.fast_path.dma_write_setup
                                        : cfg.fast_path.dma_read_setup) +
                     ticksToNs((cfg.fast_path.parse_cycles +
                                cfg.fast_path.respond_cycles) *
                               cfg.fast_path.cycle);
    b.tlb_hit_ns = ticksToNs(cfg.fast_path.tlb_lookup_cycles *
                             cfg.fast_path.cycle);
    b.tlb_miss_ns = tlb_miss ? ticksToNs(cfg.dram.access_latency) : 0;
    b.ddr_ns = ticksToNs(cfg.dram.access_latency) +
               ticksToNs(size * ticksPerByte(cfg.dram.bandwidth_bps));
    return b;
}

/** Measured on-board time for a request after a warm-up (cross-check);
 * with `tlb_miss`, its TLB entry is dropped after the warm-up. */
Tick
measured(const ModelConfig &cfg, std::uint64_t size, bool is_write,
         bool tlb_miss)
{
    Cluster cluster(cfg, 1, 1);
    CBoard &mn = cluster.mn(0);
    const ProcId pid = 7;
    const std::uint64_t page = cfg.page_table.page_size;
    std::uint64_t vpn = 1;
    while (mn.pageTable().freeSlotsInBucket(pid, vpn) == 0)
        vpn++;
    mn.pageTable().insert(pid, vpn, kPermReadWrite);
    mn.pageTable().bindFrame(pid, vpn, 0);

    RequestMsg req;
    req.type = is_write ? MsgType::kWrite : MsgType::kRead;
    req.pid = pid;
    req.addr = vpn * page;
    req.size = size;
    req.data.assign(is_write ? size : 0, 0xEE);
    ResponseMsg resp;
    req.req_id = 1;
    mn.serviceFastPath(req, 0, resp); // warm TLB
    if (tlb_miss)
        mn.tlb().invalidate(pid, vpn);
    req.req_id = 2;
    ResponseMsg resp2;
    const Tick start = 10 * kMicrosecond;
    return mn.serviceFastPath(req, start, resp2) - start;
}

} // namespace

int
main()
{
    bench::banner("Fig. 14", "CBoard latency breakdown (ns) per "
                             "component");
    const auto cfg = ModelConfig::prototype();
    bench::header({"request", "WireDelay", "InterConn", "TLBHit",
                   "TLBMiss", "DDRAccess", "measured"});
    struct Case
    {
        const char *name;
        std::uint64_t size;
        bool is_write;
        bool tlb_miss;
    };
    Tick read_hit = 0, read_miss = 0;
    for (const Case &c :
         {Case{"R-4B", 4, false, false}, Case{"R-4B-miss", 4, false, true},
          Case{"R-1KB", 1024, false, false},
          Case{"W-4B", 4, true, false},
          Case{"W-1KB", 1024, true, false}}) {
        const Breakdown b = breakdown(cfg, c.size, c.is_write,
                                      c.tlb_miss);
        const Tick t = measured(cfg, c.size, c.is_write, c.tlb_miss);
        if (c.size == 4 && !c.is_write)
            (c.tlb_miss ? read_miss : read_hit) = t;
        bench::row(c.name, {b.wire_ns, b.interconn_ns, b.tlb_hit_ns,
                            b.tlb_miss_ns, b.ddr_ns, ticksToNs(t)});
    }
    if (read_miss - read_hit != cfg.dram.access_latency) {
        bench::note("FAIL: R-4B-miss measures " +
                    std::to_string(ticksToNs(read_miss - read_hit)) +
                    " ns more than R-4B, not one DRAM access");
        return 1;
    }
    bench::note("expected shape: DDR access and wire serialization "
                "dominate, growing with size; TLB miss adds exactly "
                "one DRAM access (paper Fig. 14).");
    return 0;
}
