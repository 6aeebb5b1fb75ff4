/**
 * @file
 * Fig. 17: Radix tree search latency vs tree size — Clio's pointer-
 * chasing offload (one round trip per level) against an RDMA-style
 * traversal (one round trip per visited node).
 */

#include <memory>
#include <string>
#include <vector>

#include "apps/radix_tree.hh"
#include "baselines/rdma.hh"
#include "cluster/cluster.hh"
#include "harness.hh"
#include "sim/rng.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kChaseId = 3;
constexpr int kKeyLen = 8;

std::string
randomKey(Rng &rng)
{
    std::string key;
    for (int c = 0; c < kKeyLen; c++)
        key.push_back(static_cast<char>('a' + rng.uniformInt(26)));
    return key;
}

struct Sample
{
    double clio_us;
    double rdma_us;
};

Sample
searchLatency(std::uint64_t entries)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    cluster.mn(0).registerOffloadShared(
        PointerChaseOffload::descriptor(kChaseId),
        std::make_shared<PointerChaseOffload>(), client.pid());
    RemoteRadixTree tree(client, cluster.mn(0).nodeId(), kChaseId,
                         (entries * kKeyLen + 4096) * 48);

    Rng rng(entries ^ 0xABCD);
    std::vector<std::pair<std::string, std::uint64_t>> kvs;
    kvs.reserve(entries);
    for (std::uint64_t i = 0; i < entries; i++)
        kvs.emplace_back(randomKey(rng), i + 1);
    if (!tree.bulkLoad(kvs))
        return {-1, -1};

    // Search existing keys; measure offload path on the simulator and
    // cost the direct path's reads with the RDMA model's per-read
    // latency (one-sided read per visited node).
    RdmaMemoryNode rdma(ModelConfig::prototype(), 1 * GiB, 71);
    Tick reg = 0;
    auto mr = rdma.registerMr(64 * MiB, false, reg);
    QpId qp = rdma.createQp();

    LatencyHistogram clio_hist, rdma_hist;
    std::uint8_t node_buf[32];
    const std::uint64_t searches = bench::iters(60);
    for (std::uint64_t i = 0; i < searches; i++) {
        const auto &key = kvs[rng.uniformInt(kvs.size())].first;
        const Tick t0 = cluster.eventQueue().now();
        auto res = tree.searchOffload(key);
        clio_hist.record(cluster.eventQueue().now() - t0);
        if (!res.value)
            return {-1, -1};
        // The RDMA traversal issues one read per node the direct walk
        // visits.
        auto direct = tree.searchDirect(key);
        Tick rdma_total = 0;
        for (std::uint64_t r = 0; r < direct.remote_reads; r++) {
            rdma_total +=
                rdma.read(qp, *mr, (r * 32) % (32 * MiB), node_buf, 32)
                    .latency;
        }
        rdma_hist.record(rdma_total);
    }
    return {ticksToUs(clio_hist.median()),
            ticksToUs(rdma_hist.median())};
}

} // namespace

int
main()
{
    bench::banner("Fig. 17", "Radix tree search latency (median us) vs "
                             "tree entries (8-char keys)");
    bench::header({"entries(K)", "Clio", "RDMA"});
    for (std::uint64_t thousands : {10u, 50u, 100u, 250u, 500u, 1000u}) {
        // Smoke mode shrinks the trees 8x; the shape survives, and the
        // row label reports the size actually measured.
        const std::uint64_t entries = thousands * bench::iters(1000);
        auto s = searchLatency(entries);
        bench::row(std::to_string(entries / 1000), {s.clio_us, s.rdma_us});
    }
    bench::note("expected shape: both grow with tree size (wider "
                "levels), but RDMA grows much faster — one RTT per "
                "visited node vs one offload call per level "
                "(paper Fig. 17).");
    return 0;
}
