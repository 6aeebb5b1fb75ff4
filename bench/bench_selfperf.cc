/**
 * @file
 * Simulator self-performance harness: how fast does the simulator
 * itself run? (Not a paper figure — this tracks the repo's own
 * performance trajectory across commits.)
 *
 * Three figure-representative workloads (Fig. 7 single-client
 * latency, Fig. 4 64-process scalability, Fig. 18 YCSB-A over the KV
 * offload) run twice each, once per event-queue engine — the timing
 * wheel and the reference binary heap — inside one binary. The two
 * engines must execute the identical event sequence, so the harness
 * asserts equal executed-event counts and final simulated ticks
 * before reporting host-side events/sec; any divergence is a
 * determinism bug, not a perf result.
 *
 * A queue-stress microbench isolates the event core: a hold pattern
 * (constant pending population, one schedule per pop) over several
 * population sizes, where the wheel's O(1) schedule/pop separates
 * from the heap's O(log n) + allocation.
 *
 * Output: the usual aligned-column text, plus a machine-readable JSON
 * dump (schema "clio.bench_selfperf.v1") to CLIO_BENCH_JSON_OUT or
 * ./BENCH_selfperf.json. The JSON is deliberately free of timestamps
 * and host identifiers so trajectory diffs across commits are
 * meaningful line diffs; wall-clock numbers are only comparable on
 * one machine.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "cluster/cluster.hh"
#include "harness.hh"
#include "sim/rng.hh"

namespace clio {
namespace {

using SteadyClock = std::chrono::steady_clock;

/** One engine's measurement of one workload. */
struct EngineRun
{
    std::uint64_t events = 0;   ///< events executed by the timed loop
    double wall_seconds = 0.0;
    Tick final_tick = 0;
    std::uint64_t total_executed = 0; ///< including setup (equivalence)

    double
    eventsPerSec() const
    {
        return wall_seconds > 0.0
                   ? static_cast<double>(events) / wall_seconds
                   : 0.0;
    }
};

struct WorkloadResult
{
    std::string name;
    std::uint64_t ops = 0;
    EngineRun wheel;
    EngineRun heap;

    double
    speedup() const
    {
        return heap.eventsPerSec() > 0.0
                   ? wheel.eventsPerSec() / heap.eventsPerSec()
                   : 0.0;
    }
};

struct StressResult
{
    std::uint64_t pending = 0;
    std::uint64_t ops = 0;
    double wheel_wall = 0.0;
    double heap_wall = 0.0;

    double opsPerSec(double wall) const
    {
        return wall > 0.0 ? static_cast<double>(ops) / wall : 0.0;
    }
    double
    speedup() const
    {
        return heap_wall > 0.0 && wheel_wall > 0.0
                   ? heap_wall / wheel_wall
                   : 0.0;
    }
};

/** Scoped CLIO_EVENT_QUEUE override (the queue reads it at
 * construction); restores the caller's value on destruction. */
class EngineGuard
{
  public:
    explicit EngineGuard(const char *engine)
    {
        const char *prev = std::getenv("CLIO_EVENT_QUEUE");
        if (prev != nullptr)
            saved_ = prev;
        had_prev_ = prev != nullptr;
        ::setenv("CLIO_EVENT_QUEUE", engine, 1);
    }

    ~EngineGuard()
    {
        if (had_prev_)
            ::setenv("CLIO_EVENT_QUEUE", saved_.c_str(), 1);
        else
            ::unsetenv("CLIO_EVENT_QUEUE");
    }

  private:
    std::string saved_;
    bool had_prev_ = false;
};

/** Fig. 7 shape: one client, one MN, alternating 16 B reads/writes. */
EngineRun
runFig07(std::uint64_t ops)
{
    Cluster cluster(ModelConfig::prototype(), 1, 1);
    ClioClient &client = cluster.createClient(0);
    const VirtAddr addr = client.ralloc(4 * MiB).value_or(0);
    std::uint8_t buf[16] = {};
    client.rwrite(addr, buf, 16);

    EngineRun run;
    const std::uint64_t before = cluster.eventQueue().executed();
    const auto t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < ops; i++) {
        if (i & 1)
            client.rwrite(addr, buf, 16);
        else
            client.rread(addr, buf, 16);
    }
    run.wall_seconds =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    run.total_executed = cluster.eventQueue().executed();
    run.events = run.total_executed - before;
    run.final_tick = cluster.eventQueue().now();
    return run;
}

/** Fig. 4 shape: 64 processes round-robin over 4 MNs. */
EngineRun
runFig04(std::uint64_t ops)
{
    Cluster cluster(ModelConfig::prototype(), 4, 1);
    std::vector<ClioClient *> clients;
    std::vector<VirtAddr> addrs;
    for (std::uint32_t p = 0; p < 64; p++) {
        ClioClient &c = cluster.createClient(p % 4);
        const VirtAddr a = c.ralloc(4 * MiB).value_or(0);
        std::uint64_t v = p;
        c.rwrite(a, &v, sizeof(v));
        clients.push_back(&c);
        addrs.push_back(a);
    }
    std::uint8_t buf[16] = {};

    EngineRun run;
    const std::uint64_t before = cluster.eventQueue().executed();
    const auto t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < ops; i++) {
        const std::size_t p = i % 64;
        if (i & 1)
            clients[p]->rwrite(addrs[p], buf, 16);
        else
            clients[p]->rread(addrs[p], buf, 16);
    }
    run.wall_seconds =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    run.total_executed = cluster.eventQueue().executed();
    run.events = run.total_executed - before;
    run.final_tick = cluster.eventQueue().now();
    return run;
}

/** Fig. 18 shape: YCSB-A against the KV offload (extend path). */
EngineRun
runFig18(std::uint64_t ops)
{
    Cluster cluster(ModelConfig::prototype(), 2, 1);
    cluster.mn(0).registerOffload(
        ClioKvOffload::descriptor(1), std::make_shared<ClioKvOffload>());
    ClioClient &client = cluster.createClient(0);
    ClioKvClient kv(client, {cluster.mn(0).nodeId()}, 1);
    const std::string value(1024, 'y');
    for (std::uint64_t k = 0; k < 2000; k++)
        kv.put(YcsbGenerator::keyString(k), value);
    YcsbGenerator gen(2000, YcsbWorkload::kA);

    EngineRun run;
    const std::uint64_t before = cluster.eventQueue().executed();
    const auto t0 = SteadyClock::now();
    for (std::uint64_t i = 0; i < ops; i++) {
        const YcsbOp op = gen.next();
        const std::string key = YcsbGenerator::keyString(op.key_index);
        if (op.is_set)
            kv.put(key, value);
        else
            kv.get(key);
    }
    run.wall_seconds =
        std::chrono::duration<double>(SteadyClock::now() - t0).count();
    run.total_executed = cluster.eventQueue().executed();
    run.events = run.total_executed - before;
    run.final_tick = cluster.eventQueue().now();
    return run;
}

WorkloadResult
runWorkload(const std::string &name,
            EngineRun (*fn)(std::uint64_t), std::uint64_t ops)
{
    WorkloadResult result;
    result.name = name;
    result.ops = ops;
    {
        EngineGuard guard("wheel");
        result.wheel = fn(ops);
    }
    {
        EngineGuard guard("heap");
        result.heap = fn(ops);
    }
    // Both engines must have simulated the identical history; a
    // mismatch means an ordering bug, and the perf numbers would be
    // comparing different computations.
    clio_assert(result.wheel.total_executed == result.heap.total_executed,
                "%s: engines diverged: wheel executed %llu, heap %llu",
                name.c_str(),
                static_cast<unsigned long long>(
                    result.wheel.total_executed),
                static_cast<unsigned long long>(
                    result.heap.total_executed));
    clio_assert(result.wheel.final_tick == result.heap.final_tick,
                "%s: engines diverged: wheel end %llu, heap end %llu",
                name.c_str(),
                static_cast<unsigned long long>(result.wheel.final_tick),
                static_cast<unsigned long long>(result.heap.final_tick));
    return result;
}

/**
 * Queue-stress hold pattern: prime `pending` events, then for each of
 * `ops` steps pop one and schedule one replacement, holding the
 * population constant. The delay sequence is pregenerated so both
 * engines do the identical schedule work.
 */
StressResult
runStress(std::uint64_t pending, std::uint64_t ops)
{
    // The delay range scales with the population so event density
    // stays simulator-like (~1 event per 512 ticks; real workloads
    // are sparser still). A fixed narrow range would pile the whole
    // population into a handful of wheel slots — a shape no
    // discrete-event workload produces — and measure sort cost
    // instead of queue cost. Large populations spill past the fine
    // span, exercising the coarse cascade too.
    constexpr std::uint64_t kDelayMask = (1u << 10) - 1;
    const Tick max_delay = std::max<Tick>(1u << 17, pending * 512);
    std::vector<Tick> delays(kDelayMask + 1);
    Rng rng(pending * 7919 + 17);
    for (Tick &d : delays)
        d = rng.uniformRange(64, max_delay);

    StressResult result;
    result.pending = pending;
    result.ops = ops;
    for (int which = 0; which < 2; which++) {
        const bool wheel = which == 0;
        EngineGuard guard(wheel ? "wheel" : "heap");
        EventQueue eq;
        std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < pending; i++)
            eq.schedule(delays[i & kDelayMask] + i % 97,
                        [&sink] { sink++; });
        const auto t0 = SteadyClock::now();
        for (std::uint64_t i = 0; i < ops; i++) {
            eq.runOne();
            eq.schedule(eq.now() + delays[i & kDelayMask],
                        [&sink] { sink++; });
        }
        const double wall =
            std::chrono::duration<double>(SteadyClock::now() - t0)
                .count();
        clio_assert(sink == ops, "stress executed %llu of %llu ops",
                    static_cast<unsigned long long>(sink),
                    static_cast<unsigned long long>(ops));
        (wheel ? result.wheel_wall : result.heap_wall) = wall;
    }
    return result;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

void
writeJson(const std::vector<WorkloadResult> &workloads,
          const std::vector<StressResult> &stress, bool smoke)
{
    const char *env = std::getenv("CLIO_BENCH_JSON_OUT");
    const std::string path =
        env != nullptr && *env != '\0' ? env : "BENCH_selfperf.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"schema\": \"clio.bench_selfperf.v1\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"workloads\": [\n");
    std::vector<double> wl_speedups;
    for (std::size_t i = 0; i < workloads.size(); i++) {
        const WorkloadResult &w = workloads[i];
        wl_speedups.push_back(w.speedup());
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     w.name.c_str());
        std::fprintf(f, "      \"ops\": %llu,\n",
                     static_cast<unsigned long long>(w.ops));
        for (int e = 0; e < 2; e++) {
            const EngineRun &run = e == 0 ? w.wheel : w.heap;
            std::fprintf(
                f,
                "      \"%s\": {\"events\": %llu, \"wall_seconds\": "
                "%.6f, \"events_per_sec\": %.0f, \"final_tick\": "
                "%llu},\n",
                e == 0 ? "wheel" : "heap",
                static_cast<unsigned long long>(run.events),
                run.wall_seconds, run.eventsPerSec(),
                static_cast<unsigned long long>(run.final_tick));
        }
        std::fprintf(f,
                     "      \"speedup_wheel_over_heap\": %.3f\n    }%s\n",
                     w.speedup(), i + 1 < workloads.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"queue_stress\": [\n");
    std::vector<double> st_speedups;
    for (std::size_t i = 0; i < stress.size(); i++) {
        const StressResult &s = stress[i];
        st_speedups.push_back(s.speedup());
        std::fprintf(
            f,
            "    {\"pending\": %llu, \"ops\": %llu, "
            "\"wheel_ops_per_sec\": %.0f, \"heap_ops_per_sec\": %.0f, "
            "\"speedup_wheel_over_heap\": %.3f}%s\n",
            static_cast<unsigned long long>(s.pending),
            static_cast<unsigned long long>(s.ops),
            s.opsPerSec(s.wheel_wall), s.opsPerSec(s.heap_wall),
            s.speedup(), i + 1 < stress.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"geomean_workload_speedup\": %.3f,\n",
                 geomean(wl_speedups));
    std::fprintf(f, "  \"geomean_queue_stress_speedup\": %.3f\n}\n",
                 geomean(st_speedups));
    std::fclose(f);
    bench::note("JSON written to " + path);
}

} // namespace
} // namespace clio

int
main()
{
    using namespace clio;

    bench::banner("selfperf",
                  "simulator self-performance: timing wheel vs binary "
                  "heap (identical simulated histories)");

    std::vector<WorkloadResult> workloads;
    workloads.push_back(
        runWorkload("fig07", runFig07, bench::iters(200000)));
    workloads.push_back(
        runWorkload("fig04", runFig04, bench::iters(200000)));
    workloads.push_back(
        runWorkload("fig18", runFig18, bench::iters(60000)));

    bench::header({"workload", "wheel Mev/s", "heap Mev/s", "speedup",
                   "events"});
    for (const WorkloadResult &w : workloads)
        bench::row(w.name,
                   {w.wheel.eventsPerSec() / 1e6,
                    w.heap.eventsPerSec() / 1e6, w.speedup(),
                    static_cast<double>(w.wheel.events)});

    std::vector<StressResult> stress;
    for (std::uint64_t pending :
         {std::uint64_t{1} << 10, std::uint64_t{1} << 15,
          std::uint64_t{1} << 18})
        stress.push_back(runStress(pending, bench::iters(2000000)));

    bench::header({"pending", "wheel Mop/s", "heap Mop/s", "speedup"});
    for (const StressResult &s : stress)
        bench::row(std::to_string(s.pending),
                   {s.opsPerSec(s.wheel_wall) / 1e6,
                    s.opsPerSec(s.heap_wall) / 1e6, s.speedup()});

    writeJson(workloads, stress, bench::smokeMode());
    bench::note("wall-clock numbers are host-specific; compare "
                "trajectories on one machine only");
    return 0;
}
