/**
 * @file
 * clio_suite: one seeded benchmark for Clio's modeled latency/goodput
 * and for the simulator's host speed, with per-layer attribution.
 *
 * A run builds one workload's cluster, measures a fixed number of ops
 * through the public CLib API, checks every completion for integrity,
 * and repeats that round (same seed, fresh cluster) until the time
 * budget is spent. Modeled numbers come from one round and must repeat
 * bit-for-bit in every other round; host throughput is timed in chunks
 * of each round. See README.md for the workloads and metric glossary.
 */

#ifndef CLIO_BENCH_SUITE_SUITE_HH
#define CLIO_BENCH_SUITE_SUITE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "net/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace clio::suite {

using HostClock = std::chrono::steady_clock;

inline double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Host-speed calibration. A shared box drifts by 20-40% in speed over
// seconds to minutes, which no choice of repetitions or order statistic
// removes. So every host time is measured next to one pass of a fixed
// kernel and reported as if taken on a reference box where that kernel
// takes kCalibrationRefS: t_ref = t * kCalibrationRefS / kernel_s.
// ---------------------------------------------------------------------

/**
 * Host seconds of one pass of the calibration kernel: a 4096-entry
 * binary-heap event loop doing random reads and writes over a 16 MiB
 * table, the mix of branchy code and cache misses the simulator runs.
 * It shares no code with the Clio library, so no change under test can
 * make it faster or slower.
 */
double calibrate();

/** The kernel's fastest time on the reference box (README.md). */
constexpr double kCalibrationRefS = 0.0038;

/** Host seconds `host_s`, measured next to a kernel pass of `cal_s`,
 * at the reference speed. */
inline double
atReference(double host_s, double cal_s)
{
    return host_s * kCalibrationRefS / cal_s;
}

/** FNV-1a over 64-bit words (the run's determinism digest). */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; i++) {
            h_ ^= (word >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------
// Tracing: spans the benchmark records around its own calls into Clio.
// ---------------------------------------------------------------------

enum class Span : std::uint8_t {
    kGenStep,    ///< actor/arrival code: checking and generating ops
    kClibSubmit, ///< async / batch submit calls into CLib
    kSimPump,    ///< rpoll_cq / runUntilTime: the simulation runs
    kCalibrate,  ///< calibration kernel between chunks (not Clio work)
    kCount
};

const char *spanName(Span s);

/**
 * In-memory span recorder. Every span is aggregated (count, duration,
 * self time = duration minus the time its child spans cover); spans of
 * one op in 1024 are also kept for a Chrome trace-event export.
 */
class Tracer
{
  public:
    struct Totals
    {
        double total_ns = 0;
        double self_ns = 0;
    };

    void begin(Span s, std::uint64_t op);
    void end();

    const Totals &totals(Span s) const
    {
        return totals_[static_cast<std::size_t>(s)];
    }
    void reset();

    /** Network packets sent while a kClibSubmit span was open (the
     * rest were sent from inside the simulation pump). */
    std::uint64_t submit_packets = 0;

    /** Write the sampled spans as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    struct Open
    {
        Span span;
        std::uint64_t op;
        HostClock::time_point start;
        double child_ns = 0;
    };
    struct Sampled
    {
        Span span;
        Span parent;
        bool has_parent;
        std::uint64_t op;
        double start_us;
        double dur_us;
    };

    std::vector<Open> stack_;
    std::array<Totals, static_cast<std::size_t>(Span::kCount)> totals_{};
    std::vector<Sampled> sampled_;
    HostClock::time_point epoch_ = HostClock::now();
};

/** RAII span; a null tracer makes it free (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Tracer *t, Span s, std::uint64_t op) : t_(t)
    {
        if (t_)
            t_->begin(s, op);
    }
    ~SpanScope()
    {
        if (t_)
            t_->end();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One op a layer probe can replay (recorded during traced rounds, up
 * to 65,536 per run). */
struct ProbeInput
{
    MsgType type = MsgType::kRead; ///< kRead / kWrite / kOffload
    ProcId pid = 0;
    VirtAddr addr = 0;
    std::uint32_t size = 0;
    std::uint32_t mn = 0; ///< MN index in the cluster
    std::vector<std::uint8_t> arg; ///< encoded offload argument
};

/** Counters read from the public stats accessors of every layer. */
struct Counters
{
    std::uint64_t events = 0;
    // clib / cnode
    std::uint64_t ordering_stalls = 0;
    std::uint64_t cn_retries = 0;
    std::uint64_t cn_timeouts = 0;
    std::uint64_t cn_cwnd_decreases = 0;
    // net
    std::uint64_t net_sent = 0;
    std::uint64_t net_drops = 0;
    std::uint64_t net_cross_rack = 0;
    std::uint64_t net_pfc_stall_ticks = 0;
    // cboard
    std::uint64_t mn_fastpath_reqs = 0;
    std::uint64_t mn_nacks = 0;
    std::uint64_t mn_page_faults = 0;
    std::uint64_t mn_offload_calls = 0;
    // pagetable
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    // offload
    std::uint64_t off_dispatches = 0;
    Tick off_wait_ticks = 0;
    Tick off_busy_ticks = 0;
    std::uint64_t off_calls = 0;
    std::uint64_t off_errors = 0;
    Tick off_translate = 0;
    Tick off_dram = 0;
    Tick off_compute = 0;
    Tick off_control = 0;

    static Counters read(Cluster &cluster);
    Counters minus(const Counters &base) const;
};

/** Outcome of one measured phase. */
struct PhaseResult
{
    std::uint64_t ops = 0;       ///< ops issued (== completions)
    std::uint64_t failed = 0;    ///< non-kOk completions
    std::uint64_t integrity_errors = 0;
    std::string first_error;     ///< first integrity violation, if any
    std::vector<Tick> latency;   ///< per-op modeled latency
    std::uint64_t payload_bytes = 0;
    Tick sim_start = 0;
    Tick sim_end = 0;
    double host_s = 0;
    /** The phase's ops are host-timed in consecutive chunks of
     * chunk_ops, each bracketed by calibration kernel passes. */
    struct Chunk
    {
        double host_s = 0;
        double cal_s = 0; ///< mean of the two bracketing kernel passes
    };
    std::uint64_t chunk_ops = 0;
    std::vector<Chunk> chunks;
    std::uint64_t digest = 0;
    Counters delta;              ///< counter deltas over the phase
    std::uint32_t peak_queue_depth = 0;
    double rtt_p50_us = 0;
    double rtt_p99_us = 0;
    double host_chunks_mb = 0;   ///< materialized MN memory at the end
    double mem_pressure = 0;     ///< max MN frame utilization at the end
    std::uint64_t offload_engines = 0; ///< engines summed over MNs
};

/** Host-time spans of set-up. */
struct SetupTimes
{
    double cluster_build_s = 0;
    double populate_s = 0;
    double warmup_s = 0;
    double total() const { return cluster_build_s + populate_s + warmup_s; }
};

/** Everything a run needs to know about one workload. */
struct WorkloadSpec
{
    std::string name;
    std::uint64_t ops = 0;      ///< measured ops per round
    std::uint64_t warmup = 0;   ///< unmeasured ops before each round
    double rate_mops = 0;       ///< open loop only: offered rate
};

/** The named workloads with their pinned op counts. */
const std::vector<WorkloadSpec> &workloadSpecs();
const WorkloadSpec *findSpec(const std::string &name);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the cluster, populate it, warm it up. */
    void setup(SetupTimes &times);

    /** Outcome of the warm-up ops run by setup(). */
    const PhaseResult &warmupResult() const { return warmup_; }

    /** Run `ops` measured ops. Tracing and probe-input recording are
     * on when the pointers are non-null. */
    PhaseResult measure(std::uint64_t ops, Tracer *tracer,
                        std::vector<ProbeInput> *inputs);

    Cluster &cluster() { return *cluster_; }
    const ModelConfig &config() const { return cfg_; }

    /** Offload id the workload deployed (0 = none). */
    virtual std::uint32_t offloadId() const { return 0; }

    /** Fraction of processes whose home MN sits in their CN's rack. */
    virtual double rackLocalHomeFrac() { return 1.0; }

  protected:
    Workload(const WorkloadSpec &spec, std::uint64_t seed,
             EventQueueImpl impl);

    virtual std::unique_ptr<Cluster> build() = 0;
    virtual void populate() = 0;
    /** Issue `ops` ops and wait for all of them. */
    virtual void run(std::uint64_t ops, PhaseResult &out) = 0;

    /** Record one completion (digest + latency + status). */
    void complete(PhaseResult &out, Status status, Tick latency);
    /** Record an integrity violation. */
    void violation(PhaseResult &out, const std::string &what);
    /** Keep one probe input (traced rounds only; capped). */
    void recordInput(ProbeInput in);

    /** Run `fn` inside a clib.submit span, counting the packets it
     * put on the wire directly (the rest leave from the pump). */
    template <typename F>
    void
    submitSpan(F &&fn)
    {
        if (!tracer_) {
            fn();
            return;
        }
        const std::uint64_t sent = cluster_->network().stats().sent;
        {
            SpanScope s(tracer_, Span::kClibSubmit, next_op_);
            fn();
        }
        tracer_->submit_packets += cluster_->network().stats().sent - sent;
    }

    WorkloadSpec spec_;
    std::uint64_t seed_;
    ModelConfig cfg_;
    std::unique_ptr<Cluster> cluster_;
    PhaseResult warmup_;
    Tracer *tracer_ = nullptr;
    std::vector<ProbeInput> *inputs_ = nullptr;
    Digest digest_;
    std::uint64_t next_op_ = 0; ///< op ids for spans
    std::uint64_t chunk_left_ = 0;
    HostClock::time_point chunk_t0_;
    double chunk_cal_s_ = 0; ///< kernel pass before the open chunk
};

std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec,
                                       std::uint64_t seed,
                                       EventQueueImpl impl);

// ---------------------------------------------------------------------
// fabric_open extras: the SLO rate search and the paper anchor.
// ---------------------------------------------------------------------

/** p99 latency limit of the open-loop SLO. */
constexpr Tick kSloP99 = 10 * kMicrosecond;

struct RateTrial
{
    double rate_mops = 0;
    double p99_us = 0;
    double last_quarter_p99_us = 0;
    bool pass = false;
};

struct RateSearch
{
    double max_rate_mops = 0;
    std::vector<RateTrial> trials;
    bool integrity_ok = true;
    /** No passing rate sits above a failing one. */
    bool monotone() const;
};

/** Highest offered rate (1 Mops/s resolution) at which fabric_open
 * keeps both the whole-trial and last-quarter p99 within the SLO, each
 * trial on a fresh cluster. */
RateSearch searchMaxRate(std::uint64_t seed,
                         std::uint64_t arrivals_per_trial);

struct AnchorResult
{
    double p50_us = 0;
    double p99_us = 0;
    std::uint64_t samples = 0;
    bool integrity_ok = true;
};

/** Unloaded, rack-local, single-client 16 B probe against the paper's
 * 2.5 us median / 3.2 us p99 (run after fabric_open's measured phase). */
AnchorResult runAnchor(Workload &fabric, std::uint64_t ops);

// ---------------------------------------------------------------------
// Layer probes (traced runs, after the measured phase).
// ---------------------------------------------------------------------

struct ProbeResult
{
    double tlb_lookup_host_ns = 0;
    double pte_lookup_host_ns = 0;
    double fastpath_sim_ns = 0;
    double fastpath_host_ns = 0;
    double offload_invoke_host_ns = 0;
    double net_send_host_ns = 0;
};

ProbeResult runProbes(Workload &wl, const std::vector<ProbeInput> &inputs);

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/** Nearest-rank percentile of `v` (reorders it); 0 when empty. */
Tick percentile(std::vector<Tick> &v, double p);

double median(std::vector<double> v);

} // namespace clio::suite

#endif // CLIO_BENCH_SUITE_SUITE_HH
