/**
 * @file
 * Fig. 21: Energy per YCSB request (mJ), CN + MN split, for Clio,
 * Clover, HERD, and HERD-BF. Energy = node power x runtime /
 * requests; runtimes come from each system's simulated/modeled
 * latency under the same workload.
 */

#include <memory>
#include <string>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "baselines/systems.hh"
#include "cluster/cluster.hh"
#include "energy/energy.hh"
#include "harness.hh"

using namespace clio;

namespace {

constexpr std::uint32_t kOffloadId = 1;
constexpr std::uint64_t kKeys = 1000;
constexpr std::uint32_t kValueBytes = 1024;
constexpr int kOps = 800;

Tick
clioRuntime(YcsbWorkload workload)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    cluster.mn(0).registerOffload(ClioKvOffload::descriptor(kOffloadId),
                                  std::make_shared<ClioKvOffload>());
    ClioClient &client = cluster.createClient(0);
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, kOffloadId);
    const std::string value(kValueBytes, 'e');
    const std::uint64_t keys = bench::iters(kKeys);
    for (std::uint64_t k = 0; k < keys; k++)
        kv.put(YcsbGenerator::keyString(k), value);

    YcsbGenerator gen(keys, workload);
    const Tick t0 = cluster.eventQueue().now();
    const std::uint64_t ops = bench::iters(kOps);
    for (std::uint64_t i = 0; i < ops; i++) {
        const YcsbOp op = gen.next();
        const std::string key = YcsbGenerator::keyString(op.key_index);
        if (op.is_set)
            kv.put(key, value);
        else
            kv.get(key);
    }
    return cluster.eventQueue().now() - t0;
}

template <typename GetFn, typename SetFn>
Tick
modelRuntime(YcsbWorkload workload, GetFn &&get, SetFn &&set)
{
    YcsbGenerator gen(bench::iters(kKeys), workload);
    Tick total = 0;
    const std::uint64_t ops = bench::iters(kOps);
    for (std::uint64_t i = 0; i < ops; i++) {
        const YcsbOp op = gen.next();
        total += op.is_set ? set(kValueBytes) : get(kValueBytes);
    }
    return total;
}

} // namespace

int
main()
{
    bench::banner("Fig. 21", "Energy per request (mJ) under YCSB "
                             "A/B/C: total = CN share + MN share");
    const auto cfg = ModelConfig::prototype();
    CloverModel clover(cfg);
    HerdModel herd(cfg, false);
    HerdModel herd_bf(cfg, true);

    bench::header({"workload", "Clio", "Clio-CN", "Clover", "Clover-CN",
                   "HERD", "HERD-CN", "HERD-BF", "HERD-BF-CN"});
    const std::uint64_t ops = bench::iters(kOps);
    for (auto w : {YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC}) {
        const Tick t_clio = clioRuntime(w);
        const Tick t_clover = modelRuntime(
            w, [&](std::uint64_t n) { return clover.readLatency(n); },
            [&](std::uint64_t n) {
                return clover.writeLatency(n) + clover.readLatency(32);
            });
        const Tick t_herd = modelRuntime(
            w, [&](std::uint64_t n) { return herd.getLatency(n); },
            [&](std::uint64_t n) { return herd.putLatency(n); });
        const Tick t_herd_bf = modelRuntime(
            w, [&](std::uint64_t n) { return herd_bf.getLatency(n); },
            [&](std::uint64_t n) { return herd_bf.putLatency(n); });

        const auto e_clio = perRequestEnergy(cfg.energy,
                                             SystemKind::kClio, t_clio,
                                             ops);
        const auto e_clover = perRequestEnergy(
            cfg.energy, SystemKind::kClover, t_clover, ops);
        const auto e_herd = perRequestEnergy(cfg.energy,
                                             SystemKind::kHerd, t_herd,
                                             ops);
        const auto e_bf = perRequestEnergy(
            cfg.energy, SystemKind::kHerdBluefield, t_herd_bf, ops);
        bench::row(ycsbName(w),
                   {e_clio.total(), e_clio.cn_mj, e_clover.total(),
                    e_clover.cn_mj, e_herd.total(), e_herd.cn_mj,
                    e_bf.total(), e_bf.cn_mj});
    }
    bench::note("expected shape: Clio lowest; Clover slightly higher "
                "(CN-heavy); HERD 1.6-3x Clio; HERD-BF the most "
                "(slowest runtime) — paper Fig. 21.");
    return 0;
}
