/**
 * @file
 * Scale-out sweep: process count 10^3 -> 10^6 over a leaf/spine fabric.
 *
 * The paper's core scalability claim (§2, Fig. 4) is that Clio's
 * connection-less, per-process-stateless design keeps latency flat as
 * the process population grows, where RDMA's per-connection (QPC) and
 * per-page (MTT) NIC caches thrash. This bench pushes the claim past
 * the paper's 1000-process testbed to a million simulated processes
 * spread over a multi-rack cluster (4 -> 64 racks, one CN + one MN per
 * rack, shard-map placement):
 *  - every process is REAL: it gets a global PID, a home MN from the
 *    rack-aware shard map, a granted VA region, and a live PTE at its
 *    MN (populate=false, so untouched data pages cost nothing);
 *  - a fixed sample of issuers then measures 16 B read latency, so
 *    measured ops ride on top of the full resident population;
 *  - the RDMA baseline round-robins the same population as QPs over
 *    one memory node and spreads offsets one host page per process,
 *    thrashing both the QPC and MTT caches as N grows.
 *
 * Output: aligned-column text plus JSON ("clio.bench_scaleout.v1", no
 * timestamps) to CLIO_BENCH_JSON_OUT or ./BENCH_scaleout.json. Smoke
 * mode (CLIO_BENCH_SMOKE=1, the bench-smoke ctest) shrinks the sweep
 * and the issuer sample — announced explicitly so reduced data is
 * never mistaken for the real sweep.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/rdma.hh"
#include "cluster/cluster.hh"
#include "harness.hh"
#include "sim/stats.hh"

namespace clio {
namespace {

struct SweepPoint
{
    std::uint32_t procs = 0;
    std::uint32_t racks = 0;
};

struct PointResult
{
    SweepPoint point;
    std::uint32_t issuers = 0;
    std::uint64_t ops = 0;
    double clio_p50_us = 0.0;
    double clio_p99_us = 0.0;
    double clio_mean_us = 0.0;
    double rdma_p50_us = 0.0;
    double rdma_mean_us = 0.0;
    std::uint64_t cross_rack = 0;
};

/** Issuer sample size: every process issues below the cap; above it a
 * fixed stride-spread sample measures on top of the full population. */
std::uint32_t
issuerSample(std::uint32_t procs)
{
    const std::uint32_t cap = bench::smokeMode() ? 256u : 1024u;
    return std::min(procs, cap);
}

/** Clio side of one sweep point: full population, sampled issuers. */
void
runClio(PointResult &r)
{
    const std::uint32_t procs = r.point.procs;
    auto cfg = ModelConfig::prototype();

    ClusterSpec spec;
    spec.racks = r.point.racks;
    spec.cns_per_rack = 1;
    spec.mns_per_rack = 1;
    // Size each MN so its hash page table (slots ~ 2x physical pages)
    // comfortably holds one PTE per resident process; the backing
    // store is sparse, so unwritten capacity is free host-side.
    const std::uint64_t per_mn =
        (procs + r.point.racks - 1) / r.point.racks;
    spec.mn_phys_bytes = std::max<std::uint64_t>(
        2 * GiB, 2 * per_mn * cfg.page_table.page_size);
    Cluster cluster(cfg, spec);

    const std::uint32_t issuers = issuerSample(procs);
    const std::uint32_t stride = procs / issuers;
    std::vector<ClioClient *> sampled;
    std::vector<VirtAddr> addrs;
    sampled.reserve(issuers);
    addrs.reserve(issuers);

    // The resident population: every process allocates one page of
    // remote memory at its shard-map home MN. Only sampled issuers
    // ever touch data, so physical frames stay proportional to the
    // sample, while PTE/VA/controller state scales with `procs`.
    for (std::uint32_t p = 0; p < procs; p++) {
        ClioClient &c = cluster.createClient(p % r.point.racks);
        const VirtAddr a = c.ralloc(4 * KiB).value_or(0);
        if (sampled.size() < issuers && p == stride * sampled.size()) {
            std::uint64_t v = p;
            c.rwrite(a, &v, sizeof(v)); // fault + warm
            sampled.push_back(&c);
            addrs.push_back(a);
        }
    }

    LatencyHistogram hist;
    std::uint8_t buf[16] = {};
    const std::uint64_t ops = bench::iters(20000);
    cluster.network().resetStats();
    for (std::uint64_t i = 0; i < ops; i++) {
        const std::size_t p = static_cast<std::size_t>(i) % issuers;
        const Tick t0 = cluster.eventQueue().now();
        sampled[p]->rread(addrs[p], buf, 16);
        hist.record(cluster.eventQueue().now() - t0);
    }
    r.issuers = issuers;
    r.ops = ops;
    r.clio_p50_us = ticksToUs(hist.median());
    r.clio_p99_us = ticksToUs(hist.p99());
    r.clio_mean_us = hist.mean() / static_cast<double>(kMicrosecond);
    r.cross_rack = cluster.network().stats().cross_rack;
}

/** RDMA side: same population as QPs, one host page per process. */
void
runRdma(PointResult &r)
{
    const std::uint32_t procs = r.point.procs;
    auto cfg = ModelConfig::prototype();
    RdmaMemoryNode node(cfg, 2 * GiB, 99);
    Tick lat = 0;
    auto mr = node.registerMr(1 * GiB, false, lat);
    clio_assert(mr.has_value(), "RDMA MR registration failed");
    const std::uint64_t mr_pages = (1 * GiB) / RdmaMemoryNode::kHostPage;

    std::vector<QpId> qps;
    qps.reserve(procs);
    for (std::uint32_t p = 0; p < procs; p++)
        qps.push_back(node.createQp());

    LatencyHistogram hist;
    std::uint8_t buf[16] = {};
    Rng rng(7);
    const std::uint64_t ops = bench::iters(20000);
    for (std::uint64_t i = 0; i < ops; i++) {
        // Uniform process choice: each op is some process' next
        // access, touching its own QP and its own host page.
        const std::uint64_t p = rng.uniformInt(procs);
        const std::uint64_t off =
            (p % mr_pages) * RdmaMemoryNode::kHostPage;
        auto res = node.read(qps[p], *mr, off, buf, 16);
        hist.record(res.latency);
    }
    r.rdma_p50_us = ticksToUs(hist.median());
    r.rdma_mean_us = hist.mean() / static_cast<double>(kMicrosecond);
}

void
writeJson(const std::vector<PointResult> &results)
{
    double p50_min = 0.0, p50_max = 0.0;
    for (const PointResult &r : results) {
        if (p50_min == 0.0 || r.clio_p50_us < p50_min)
            p50_min = r.clio_p50_us;
        if (r.clio_p50_us > p50_max)
            p50_max = r.clio_p50_us;
    }
    bench::writeJson("scaleout", [&](std::FILE *f) {
        std::fprintf(f, "  \"points\": [\n");
        for (std::size_t i = 0; i < results.size(); i++) {
            const PointResult &r = results[i];
            std::fprintf(
                f,
                "    {\"procs\": %u, \"racks\": %u, \"issuers\": %u, "
                "\"ops\": %llu, \"clio_p50_us\": %.3f, \"clio_p99_us\": "
                "%.3f, \"clio_mean_us\": %.3f, \"rdma_p50_us\": %.3f, "
                "\"rdma_mean_us\": %.3f, \"cross_rack_packets\": %llu}%s\n",
                r.point.procs, r.point.racks, r.issuers,
                static_cast<unsigned long long>(r.ops), r.clio_p50_us,
                r.clio_p99_us, r.clio_mean_us, r.rdma_p50_us,
                r.rdma_mean_us,
                static_cast<unsigned long long>(r.cross_rack),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"clio_p50_max_over_min\": %.3f\n",
                     p50_min > 0.0 ? p50_max / p50_min : 0.0);
    });
}

} // namespace
} // namespace clio

int
main()
{
    using namespace clio;

    bench::banner("scale-out",
                  "16 B read latency vs resident process count, "
                  "multi-rack leaf/spine cluster (beyond Fig. 4)");
    std::vector<SweepPoint> sweep;
    if (bench::smokeMode()) {
        bench::note("smoke mode: reduced sweep (<= 4000 processes, "
                    "<= 256 sampled issuers); run the binary directly "
                    "for the 10^3 -> 10^6 sweep");
        sweep = {{1000, 4}, {4000, 8}};
    } else {
        sweep = {{1000, 4}, {10000, 8}, {100000, 16}, {1000000, 64}};
    }

    std::vector<PointResult> results;
    bench::header({"processes", "racks", "Clio-p50", "Clio-p99",
                   "RDMA-p50", "RDMA-mean"});
    for (const SweepPoint &pt : sweep) {
        PointResult r;
        r.point = pt;
        runClio(r);
        runRdma(r);
        results.push_back(r);
        bench::row(std::to_string(pt.procs),
                   {static_cast<double>(pt.racks), r.clio_p50_us,
                    r.clio_p99_us, r.rdma_p50_us, r.rdma_mean_us});
    }

    writeJson(results);
    bench::note("expected shape: Clio p50 flat (connection-less, "
                "rack-local shard placement) while RDMA rises as QPC "
                "and MTT caches thrash (paper Fig. 4 at cluster "
                "scale).");
    return 0;
}
