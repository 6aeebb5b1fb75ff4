/**
 * @file
 * Fig. 18: Key-value store latency under YCSB A/B/C — Clio-KV (full
 * simulated stack, extend-path offload) vs Clover, HERD, and HERD on
 * BlueField (latency-profile models), zipf 0.99, 1 KB values.
 */

#include <memory>
#include <string>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "baselines/systems.hh"
#include "cluster/cluster.hh"
#include "harness.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kOffloadId = 1;
constexpr std::uint64_t kKeys = 2000;
constexpr std::uint32_t kValueBytes = 1024;
constexpr int kOps = 1200;

double
clioKvUs(YcsbWorkload workload)
{
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(kOffloadId),
                                  std::make_shared<ClioKvOffload>());
    ClioClient &client = cluster.createClient(0);
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kOffloadId);
    const std::string value(kValueBytes, 'y');
    const std::uint64_t keys = bench::iters(kKeys);
    for (std::uint64_t k = 0; k < keys; k++)
        kv.put(YcsbGenerator::keyString(k), value);

    YcsbGenerator gen(keys, workload);
    LatencyHistogram hist;
    const std::uint64_t ops = bench::iters(kOps);
    for (std::uint64_t i = 0; i < ops; i++) {
        const YcsbOp op = gen.next();
        const std::string key = YcsbGenerator::keyString(op.key_index);
        const Tick t0 = cluster.eventQueue().now();
        if (op.is_set)
            kv.put(key, value);
        else
            kv.get(key);
        hist.record(cluster.eventQueue().now() - t0);
    }
    return ticksToUs(hist.percentile(50));
}

/** Latency-model systems: issue the same op mix. */
template <typename GetFn, typename SetFn>
double
modelUs(YcsbWorkload workload, GetFn &&get, SetFn &&set)
{
    YcsbGenerator gen(bench::iters(kKeys), workload);
    LatencyHistogram hist;
    const std::uint64_t ops = bench::iters(kOps);
    for (std::uint64_t i = 0; i < ops; i++) {
        const YcsbOp op = gen.next();
        hist.record(op.is_set ? set(kValueBytes) : get(kValueBytes));
    }
    return ticksToUs(hist.percentile(50));
}

} // namespace

int
main()
{
    bench::banner("Fig. 18", "KV store YCSB latency (median us), zipf "
                             "0.99, 1 KB values");
    const auto cfg = ModelConfig::prototype();
    CloverModel clover(cfg);
    HerdModel herd(cfg, false);
    HerdModel herd_bf(cfg, true);

    bench::header({"workload", "Clio", "Clover", "HERD", "HERD-BF"});
    for (auto w : {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC}) {
        bench::row(
            ycsbName(w),
            {clioKvUs(w),
             modelUs(
                 w, [&](std::uint64_t n) { return clover.readLatency(n); },
                 [&](std::uint64_t n) {
                     // Clover set: allocate + write + pointer update.
                     return clover.writeLatency(n) +
                            clover.readLatency(32);
                 }),
             modelUs(
                 w, [&](std::uint64_t n) { return herd.getLatency(n); },
                 [&](std::uint64_t n) { return herd.putLatency(n); }),
             modelUs(
                 w,
                 [&](std::uint64_t n) { return herd_bf.getLatency(n); },
                 [&](std::uint64_t n) { return herd_bf.putLatency(n); })});
    }
    bench::note("expected shape: Clio-KV best or close to HERD; "
                "HERD-BF worst (chip crossing); Clover hurt by "
                "multi-RTT sets (paper Fig. 18).");
    return 0;
}
