/**
 * @file
 * clio_suite command line.
 *
 *   clio_suite --workload <name> [--seed N] [--seconds S] [--trace]
 *              [--out f.json]
 *   clio_suite --selftest
 *
 * A run sets the workload up at least nine times (setup_s is the
 * median), and measures rounds of its pinned op count (fresh cluster,
 * same seed) until --seconds of measured host time have passed and at
 * least three rounds ran. host_ops_per_s is the median rate of the
 * rounds' 1/16-round chunks, each calibrated to the reference host
 * speed (suite.hh). It prints `name value unit` lines and, as its last
 * stdout line, one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * holding the end-to-end metrics, or with --trace the per-layer ones.
 * --trace alternates untraced and traced rounds, then runs the layer
 * probes. Exit status is 0 only when every integrity check passed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "suite.hh"

namespace clio::suite {
namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    std::string out;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** One named check with its value already rendered as JSON. */
struct Check
{
    std::string name;
    std::string json;
};

struct Report
{
    std::vector<Metric> metrics; ///< end to end
    std::vector<Metric> layers;  ///< per layer (traced runs)
    std::vector<Check> checks;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Host figures of one measured round, at the reference speed. */
struct Round
{
    bool traced = false;
    std::vector<double> chunk_ops_per_s;
    std::vector<double> raw_chunk_ops_per_s; ///< as measured
    std::vector<double> cal_s;               ///< kernel time per chunk
    double pump_self_ns = 0; ///< per op; traced rounds only
    double gen_self_ns = 0;
    double submit_ns = 0;
};

// Paper anchor (§7.1, Fig. 7): unloaded median and p99 latency.
constexpr double kPaperP50Us = 2.5;
constexpr double kPaperP99Us = 3.2;
constexpr std::uint64_t kAnchorOps = 20000;
constexpr std::uint64_t kRateTrialArrivals = 300000;
constexpr std::uint64_t kSelftestDivisor = 64;
/** Set-ups per run (extra set-up-only repetitions top the rounds up),
 * so setup_s is a median of at least this many. */
constexpr std::size_t kMinSetups = 9;

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); i++) {
        out += (i ? ", " : "") + str(ms[i].name) + ": {\"value\": " +
               num(ms[i].value) + ", \"unit\": " + str(ms[i].unit) + "}";
    }
    return out + "}";
}

std::string
checksJson(const std::vector<Check> &cs)
{
    std::string out = "{";
    for (std::size_t i = 0; i < cs.size(); i++)
        out += (i ? ", " : "") + str(cs[i].name) + ": " + cs[i].json;
    return out + "}";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
perOp(double v, std::uint64_t ops)
{
    return ops ? v / static_cast<double>(ops) : 0;
}

/** Median, over the rounds with the given tracing, of `field`'s values
 * (a vector per round, pooled). */
template <typename F>
double
pooledMedian(const std::vector<Round> &rounds, bool traced, F &&field)
{
    std::vector<double> v;
    for (const Round &r : rounds) {
        if (r.traced != traced)
            continue;
        const std::vector<double> &xs = field(r);
        v.insert(v.end(), xs.begin(), xs.end());
    }
    return median(std::move(v));
}

/** Median of one per-round scalar over the traced rounds. */
template <typename F>
double
tracedMedian(const std::vector<Round> &rounds, F &&field)
{
    std::vector<double> v;
    for (const Round &r : rounds) {
        if (r.traced)
            v.push_back(field(r));
    }
    return median(std::move(v));
}

template <typename F>
double
medianSetup(const std::vector<SetupTimes> &setups, F &&field)
{
    std::vector<double> v;
    for (const SetupTimes &s : setups)
        v.push_back(field(s));
    return median(std::move(v));
}

Report
runWorkload(const Options &opt, const WorkloadSpec &spec)
{
    Report rep;
    const EventQueueImpl impl = EventQueueImpl::kTimingWheel;
    std::vector<SetupTimes> setups; ///< at the reference speed
    std::vector<Round> rounds;
    PhaseResult ref;
    std::unique_ptr<Workload> wl;
    Tracer tracer;
    std::vector<ProbeInput> inputs;
    std::uint64_t integrity = 0;
    std::string first_error;
    bool stable = true;
    double measured = 0;
    const std::size_t min_rounds = opt.trace ? 2 : 3;

    const auto noteErrors = [&](const PhaseResult &p) {
        integrity += p.integrity_errors;
        if (first_error.empty())
            first_error = p.first_error;
    };
    const auto setUp = [&] {
        wl.reset();
        wl = makeWorkload(spec, opt.seed, impl);
        SetupTimes t;
        const double cal_before = calibrate();
        wl->setup(t);
        const double cal = 0.5 * (cal_before + calibrate());
        setups.push_back({atReference(t.cluster_build_s, cal),
                          atReference(t.populate_s, cal),
                          atReference(t.warmup_s, cal)});
        noteErrors(wl->warmupResult());
        integrity += wl->warmupResult().failed;
    };

    for (std::size_t i = min_rounds; i < kMinSetups; i++)
        setUp();
    for (std::size_t r = 0;; r++) {
        Round round;
        round.traced = opt.trace && r % 2 == 1;
        setUp();
        if (round.traced) {
            tracer.reset();
            inputs.clear();
        }
        PhaseResult ph = wl->measure(spec.ops,
                                     round.traced ? &tracer : nullptr,
                                     round.traced ? &inputs : nullptr);
        measured += ph.host_s;
        const auto chunk_ops = static_cast<double>(ph.chunk_ops);
        for (const PhaseResult::Chunk &c : ph.chunks) {
            round.chunk_ops_per_s.push_back(
                chunk_ops / atReference(c.host_s, c.cal_s));
            round.raw_chunk_ops_per_s.push_back(chunk_ops / c.host_s);
            round.cal_s.push_back(c.cal_s);
        }
        if (round.traced) {
            const double cal = median(round.cal_s);
            round.pump_self_ns = atReference(
                perOp(tracer.totals(Span::kSimPump).self_ns, ph.ops), cal);
            round.gen_self_ns = atReference(
                perOp(tracer.totals(Span::kGenStep).self_ns, ph.ops), cal);
            round.submit_ns = atReference(
                perOp(tracer.totals(Span::kClibSubmit).total_ns, ph.ops),
                cal);
        }
        rep.attempted += ph.ops;
        rep.failed += ph.failed;
        noteErrors(ph);
        if (r == 0)
            ref = std::move(ph);
        else if (ph.digest != ref.digest)
            stable = false;
        rounds.push_back(std::move(round));
        if (measured >= opt.seconds && rounds.size() >= min_rounds &&
            (!opt.trace || rounds.back().traced))
            break;
    }
    // Chunks are short enough that interference inside one is rare,
    // and the calibration removes the slow drift between them.
    const auto rates = [](const Round &r) -> const std::vector<double> & {
        return r.chunk_ops_per_s;
    };
    const double host_ops = pooledMedian(rounds, false, rates);

    // ---- end to end (modeled numbers from round 0; every round
    // replayed the same digest) ----
    const double ops = static_cast<double>(ref.ops);
    const double sim_s = ticksToSeconds(ref.sim_end - ref.sim_start);
    const double p50 = ticksToUs(percentile(ref.latency, 50));
    const double p99 = ticksToUs(percentile(ref.latency, 99));
    const double p9999 = ticksToUs(percentile(ref.latency, 99.99));
    rep.metrics = {
        {"host_ops_per_s", host_ops, "1/s"},
        {"setup_s",
         medianSetup(setups, [](const SetupTimes &s) { return s.total(); }),
         "s"},
        {"peak_rss_mb", 0, "MB"}, // filled in last
        {"lat_p50_us", p50, "us"},
        {"lat_p99_us", p99, "us"},
        {"lat_p9999_us", p9999, "us"},
        {"sim_mops", ops / sim_s / 1e6, "Mops/s"},
        {"goodput_gbps",
         static_cast<double>(ref.payload_bytes) * 8 / sim_s / 1e9, "Gbps"},
    };

    const bool fabric = spec.name == "fabric_open";
    if (fabric) {
        const AnchorResult a = runAnchor(*wl, kAnchorOps);
        rep.checks.push_back({"ref.p50_us", num(a.p50_us)});
        rep.checks.push_back({"ref.p99_us", num(a.p99_us)});
        rep.checks.push_back(
            {"ref.p50_err_pct", num((a.p50_us / kPaperP50Us - 1) * 100)});
        rep.checks.push_back(
            {"ref.p99_err_pct", num((a.p99_us / kPaperP99Us - 1) * 100)});
        rep.checks.push_back({"ref.samples", num(a.samples)});
        if (!a.integrity_ok) {
            integrity++;
            if (first_error.empty())
                first_error = "paper anchor: read-back mismatch";
        }
    }

    // ---- per layer (traced runs) ----
    if (opt.trace) {
        const Counters &d = ref.delta;
        const std::uint64_t n = ref.ops;
        const double cal_before = calibrate();
        ProbeResult probe = runProbes(*wl, inputs);
        const double probe_cal = 0.5 * (cal_before + calibrate());
        for (double *host_ns :
             {&probe.tlb_lookup_host_ns, &probe.pte_lookup_host_ns,
              &probe.fastpath_host_ns, &probe.offload_invoke_host_ns,
              &probe.net_send_host_ns})
            *host_ns = atReference(*host_ns, probe_cal);
        RateSearch search;
        if (fabric) {
            search = searchMaxRate(opt.seed, kRateTrialArrivals);
            std::string trials = "[";
            for (std::size_t i = 0; i < search.trials.size(); i++) {
                const RateTrial &t = search.trials[i];
                trials += std::string(i ? ", " : "") +
                          "{\"rate_mops\": " + num(t.rate_mops) +
                          ", \"p99_us\": " + num(t.p99_us) +
                          ", \"last_quarter_p99_us\": " +
                          num(t.last_quarter_p99_us) + ", \"pass\": " +
                          (t.pass ? "true" : "false") + "}";
            }
            rep.checks.push_back({"rate_trials", trials + "]"});
            rep.checks.push_back(
                {"rate_search_monotone", search.monotone() ? "true" : "false"});
            if (!search.monotone() || !search.integrity_ok) {
                integrity++;
                if (first_error.empty())
                    first_error = "max-rate search: non-monotone or "
                                  "integrity failure";
            }
        }
        const double traced_ops = pooledMedian(rounds, true, rates);
        const double pump_self = tracedMedian(
            rounds, [](const Round &r) { return r.pump_self_ns; });
        // The loop ended on a traced round, so the tracer holds its
        // packet split.
        const double pump_packets =
            perOp(static_cast<double>(d.net_sent) -
                      static_cast<double>(tracer.submit_packets),
                  n);
        // The pump's self time minus what the probes account for: the
        // network sends made from inside the pump, fast-path requests,
        // and offload invocations (fast-path host time already covers
        // its TLB and page-table lookups).
        const double attributed =
            probe.net_send_host_ns * pump_packets +
            probe.fastpath_host_ns *
                perOp(static_cast<double>(d.mn_fastpath_reqs), n) +
            probe.offload_invoke_host_ns *
                perOp(static_cast<double>(d.mn_offload_calls), n);
        const std::uint64_t lookups = d.tlb_hits + d.tlb_misses;
        const double calls = static_cast<double>(
            std::max<std::uint64_t>(d.off_calls, 1));
        const double dispatches = static_cast<double>(
            std::max<std::uint64_t>(d.off_dispatches, 1));
        const double engine_time =
            static_cast<double>(ref.offload_engines) *
            static_cast<double>(ref.sim_end - ref.sim_start);
        rep.layers = {
            {"sim.events_per_op", perOp(static_cast<double>(d.events), n),
             "count"},
            {"sim.host_ns_per_event",
             d.events ? 1e9 * static_cast<double>(n) /
                            (host_ops * static_cast<double>(d.events))
                      : 0,
             "ns"},
            {"sim.pump_self_ns_per_op", pump_self, "ns"},
            {"gen.step_self_ns_per_op",
             tracedMedian(rounds,
                          [](const Round &r) { return r.gen_self_ns; }),
             "ns"},
            {"clib.submit_host_ns_per_op",
             tracedMedian(rounds,
                          [](const Round &r) { return r.submit_ns; }),
             "ns"},
            {"clib.ordering_stalls_per_kop",
             perOp(static_cast<double>(d.ordering_stalls) * 1000, n),
             "count"},
            {"cnode.rtt_p50_us", ref.rtt_p50_us, "us"},
            {"cnode.cn_wait_p50_us", p50 - ref.rtt_p50_us, "us"},
            {"cnode.rtt_p99_us", ref.rtt_p99_us, "us"},
            {"cnode.retries_per_kop",
             perOp(static_cast<double>(d.cn_retries) * 1000, n), "count"},
            {"cnode.timeouts", static_cast<double>(d.cn_timeouts), "count"},
            {"cnode.cwnd_decreases_per_kop",
             perOp(static_cast<double>(d.cn_cwnd_decreases) * 1000, n),
             "count"},
            {"net.pfc_stall_ns_per_op",
             perOp(ticksToNs(d.net_pfc_stall_ticks), n), "ns"},
            {"net.peak_queue_depth",
             static_cast<double>(ref.peak_queue_depth), "packets"},
            {"net.cross_rack_frac",
             d.net_sent ? static_cast<double>(d.net_cross_rack) /
                              static_cast<double>(d.net_sent)
                        : 0,
             "frac"},
            {"net.drops", static_cast<double>(d.net_drops), "count"},
            {"net.packets_per_op", perOp(static_cast<double>(d.net_sent), n),
             "count"},
            {"net.send_host_ns", probe.net_send_host_ns, "ns"},
            {"cboard.page_faults", static_cast<double>(d.mn_page_faults),
             "count"},
            {"cboard.nacks", static_cast<double>(d.mn_nacks), "count"},
            {"cboard.fastpath_sim_ns", probe.fastpath_sim_ns, "ns"},
            {"cboard.fastpath_host_ns", probe.fastpath_host_ns, "ns"},
            {"tlb.hit_ratio",
             lookups ? static_cast<double>(d.tlb_hits) /
                           static_cast<double>(lookups)
                     : 0,
             "frac"},
            {"tlb.misses_per_op", perOp(static_cast<double>(d.tlb_misses), n),
             "count"},
            {"pagetable.tlb_lookup_host_ns", probe.tlb_lookup_host_ns, "ns"},
            {"pagetable.pte_lookup_host_ns", probe.pte_lookup_host_ns, "ns"},
            {"mem.host_chunks_mb", ref.host_chunks_mb, "MB"},
            {"mem.pressure", ref.mem_pressure, "frac"},
            {"offload.engine_wait_us_per_call",
             ticksToUs(d.off_wait_ticks) / dispatches, "us"},
            {"offload.engine_busy_frac",
             engine_time > 0
                 ? static_cast<double>(d.off_busy_ticks) / engine_time
                 : 0,
             "frac"},
            {"offload.translate_us_per_call",
             ticksToUs(d.off_translate) / calls, "us"},
            {"offload.dram_us_per_call", ticksToUs(d.off_dram) / calls, "us"},
            {"offload.compute_us_per_call", ticksToUs(d.off_compute) / calls,
             "us"},
            {"offload.control_us_per_call", ticksToUs(d.off_control) / calls,
             "us"},
            {"offload.errors", static_cast<double>(d.off_errors), "count"},
            {"offload.invoke_host_ns", probe.offload_invoke_host_ns, "ns"},
            {"setup.cluster_build_s",
             medianSetup(setups,
                         [](const SetupTimes &s) { return s.cluster_build_s; }),
             "s"},
            {"setup.populate_s",
             medianSetup(setups,
                         [](const SetupTimes &s) { return s.populate_s; }),
             "s"},
            {"setup.warmup_s",
             medianSetup(setups,
                         [](const SetupTimes &s) { return s.warmup_s; }),
             "s"},
            {"cluster.rack_local_home_frac", wl->rackLocalHomeFrac(), "frac"},
            {"cluster.max_rate_mops", search.max_rate_mops, "Mops/s"},
            {"host.unattributed_ns_per_op", pump_self - attributed, "ns"},
            {"trace.overhead_frac",
             host_ops > 0 ? 1 - traced_ops / host_ops : 0, "frac"},
        };
        if (!opt.out.empty()) {
            std::string path = opt.out;
            if (path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0)
                path.resize(path.size() - 5);
            tracer.writeChrome(path + ".trace.json");
        }
    }

    rep.metrics[2].value = peakRssMb();
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, ref.digest);
    rep.checks.insert(
        rep.checks.begin(),
        {{"digest", str(digest)},
         {"digest_stable", stable ? "true" : "false"},
         {"integrity_errors", num(static_cast<double>(integrity))},
         {"first_error", str(first_error)},
         {"rounds", num(static_cast<double>(rounds.size()))},
         {"setups", num(static_cast<double>(setups.size()))},
         {"host_ops_per_s_raw",
          num(pooledMedian(rounds, false,
                           [](const Round &r) -> const std::vector<double> & {
                               return r.raw_chunk_ops_per_s;
                           }))},
         {"calibration_s",
          num(pooledMedian(rounds, false,
                           [](const Round &r) -> const std::vector<double> & {
                               return r.cal_s;
                           }))},
         {"samples", num(ops)},
         {"samples_beyond_p9999", num(std::floor(ops * 1e-4))},
         {"fail_frac",
          num(static_cast<double>(rep.failed) /
              static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1)))}});
    rep.correct = integrity == 0 && stable;
    return rep;
}

void
printReport(const Options &opt, const Report &rep)
{
    for (const Metric &m : rep.metrics)
        std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : rep.layers)
        std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Check &c : rep.checks) {
        if (c.name != "rate_trials")
            std::printf("checks.%-27s %s\n", c.name.c_str(), c.json.c_str());
    }
    if (!opt.out.empty()) {
        std::FILE *f = std::fopen(opt.out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "clio_suite: cannot write %s\n",
                         opt.out.c_str());
        } else {
            std::fprintf(
                f,
                "{\"schema\": \"clio.suite.v1\", \"workload\": %s, "
                "\"seed\": %s, \"trace\": %s, \"correct\": %s, "
                "\"attempted\": %s, \"failed\": %s,\n \"metrics\": %s,\n "
                "\"layers\": %s,\n \"checks\": %s}\n",
                str(opt.workload).c_str(),
                num(static_cast<double>(opt.seed)).c_str(),
                opt.trace ? "true" : "false", rep.correct ? "true" : "false",
                num(static_cast<double>(rep.attempted)).c_str(),
                num(static_cast<double>(rep.failed)).c_str(),
                metricsJson(rep.metrics).c_str(),
                metricsJson(rep.layers).c_str(),
                checksJson(rep.checks).c_str());
            std::fclose(f);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metricsJson(opt.trace ? rep.layers : rep.metrics).c_str());
}

/** Every workload at 1/64 of its op count, twice on the timing wheel
 * and once on the reference heap: identical digests, clean integrity
 * checks, no failed ops, and a monotone max-rate search. */
int
selftest()
{
    bool all_ok = true;
    for (WorkloadSpec spec : workloadSpecs()) {
        spec.ops = std::max<std::uint64_t>(spec.ops / kSelftestDivisor, 1);
        spec.warmup /= kSelftestDivisor;
        const EventQueueImpl impls[3] = {EventQueueImpl::kTimingWheel,
                                         EventQueueImpl::kTimingWheel,
                                         EventQueueImpl::kBinaryHeap};
        std::uint64_t digests[3] = {};
        bool ok = true;
        std::string error;
        for (int k = 0; k < 3; k++) {
            auto wl = makeWorkload(spec, 1, impls[k]);
            SetupTimes times;
            wl->setup(times);
            const PhaseResult &w = wl->warmupResult();
            const PhaseResult p = wl->measure(spec.ops, nullptr, nullptr);
            digests[k] = p.digest;
            if (w.integrity_errors || w.failed || p.integrity_errors ||
                p.failed) {
                ok = false;
                if (error.empty())
                    error = w.first_error + p.first_error;
                if (error.empty())
                    error = "failed ops";
            }
        }
        if (digests[0] != digests[1] || digests[0] != digests[2]) {
            ok = false;
            error = "digests differ across engines/replays";
        }
        std::printf("selftest %-14s %s  wheel %016" PRIx64 " wheel %016" PRIx64
                    " heap %016" PRIx64 "%s%s\n",
                    spec.name.c_str(), ok ? "PASS" : "FAIL", digests[0],
                    digests[1], digests[2], error.empty() ? "" : "  ",
                    error.c_str());
        all_ok &= ok;
    }
    const RateSearch search =
        searchMaxRate(1, kRateTrialArrivals / kSelftestDivisor);
    const bool ok = search.monotone() && search.integrity_ok;
    std::printf("selftest %-14s %s  max_rate %.0f Mops/s over %zu trials\n",
                "rate_search", ok ? "PASS" : "FAIL", search.max_rate_mops,
                search.trials.size());
    for (const RateTrial &t : search.trials)
        std::printf("  rate %6.1f  p99 %8.3f us  last-quarter p99 %8.3f us"
                    "  %s\n",
                    t.rate_mops, t.p99_us, t.last_quarter_p99_us,
                    t.pass ? "pass" : "fail");
    all_ok &= ok;
    std::printf("selftest %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "clio_suite: %s\n"
                 "usage: clio_suite --workload <name> [--seed N] "
                 "[--seconds S] [--trace] [--out f.json]\n"
                 "       clio_suite --selftest\n"
                 "workloads:",
                 why);
    for (const WorkloadSpec &s : workloadSpecs())
        std::fprintf(stderr, " %s", s.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (a == "--seconds") {
            const std::string v = value();
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds >= 0))
                usage("--seconds takes a non-negative number");
        } else if (a == "--trace") {
            opt.trace = true;
        } else if (a == "--out") {
            opt.out = value();
        } else if (a == "--selftest") {
            opt.selftest = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    return opt;
}

} // namespace
} // namespace clio::suite

int
main(int argc, char **argv)
{
    using namespace clio::suite;
    const Options opt = parse(argc, argv);
    if (opt.selftest)
        return selftest();
    const WorkloadSpec *spec = findSpec(opt.workload);
    if (spec == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    const Report rep = runWorkload(opt, *spec);
    printReport(opt, rep);
    return rep.correct ? 0 : 1;
}
