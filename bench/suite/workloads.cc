/**
 * @file
 * The four clio_suite workloads. Each issues its ops through the public
 * CLib API, times every op in simulated time, and checks every
 * completion against a shadow of what the benchmark itself wrote.
 */

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

#include "apps/kv_store.hh"
#include "apps/ycsb.hh"
#include "clib/queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "suite.hh"

namespace clio::suite {

// ---------------------------------------------------------------------
// Workload table. Op counts are pinned: each measured round takes about
// 2-3 s of host time on the reference box (README.md), so a 10 s run
// measures 3-5 rounds. fabric_open's rate puts its p99 at ~70% of the
// 10 us SLO (30 Mops/s, the first pick, overshot it).
// ---------------------------------------------------------------------

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"kv_ycsb_b", 1200000, 8000, 0},
        {"rw_async_1k", 1600000, 16000, 0},
        {"tlb_zipf_64b", 2000000, 32000, 0},
        {"fabric_open", 1400000, 32000, 15},
    };
    return specs;
}

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Counters from the public stats accessors.
// ---------------------------------------------------------------------

Counters
Counters::read(Cluster &cluster)
{
    Counters c;
    c.events = cluster.eventQueue().executed();
    for (std::uint32_t i = 0; i < cluster.clientCount(); i++)
        c.ordering_stalls += cluster.client(i).stats().ordering_stalls;
    for (std::uint32_t i = 0; i < cluster.cnCount(); i++) {
        const CNodeStats &s = cluster.cn(i).stats();
        c.cn_retries += s.retries;
        c.cn_timeouts += s.timeouts;
        c.cn_cwnd_decreases += s.cwnd_decreases;
    }
    const NetStats &n = cluster.network().stats();
    c.net_sent = n.sent;
    c.net_drops = n.dropped_random + n.dropped_queue + n.dropped_agg_queue +
                  n.dropped_down + n.dropped_fault;
    c.net_cross_rack = n.cross_rack;
    c.net_pfc_stall_ticks = n.pfc_stall_ticks;
    for (std::uint32_t i = 0; i < cluster.mnCount(); i++) {
        CBoard &mn = cluster.mn(i);
        const CBoardStats &s = mn.stats();
        c.mn_fastpath_reqs += s.reads + s.writes + s.atomics + s.fences;
        c.mn_nacks += s.nacks_sent;
        c.mn_page_faults += s.page_faults;
        c.mn_offload_calls += s.offload_calls;
        c.tlb_hits += mn.tlb().hits();
        c.tlb_misses += mn.tlb().misses();
        const EngineSchedulerStats &e =
            mn.offloadRuntime().scheduler().stats();
        c.off_dispatches += e.dispatches;
        c.off_wait_ticks += e.wait_ticks;
        c.off_busy_ticks += e.busy_ticks;
        for (const auto &[id, entry] :
             mn.offloadRuntime().registry().entries()) {
            (void)id;
            c.off_calls += entry.stats.calls + entry.stats.chain_stages;
            c.off_errors += entry.stats.errors;
            c.off_translate += entry.stats.cost.translate;
            c.off_dram += entry.stats.cost.dram;
            c.off_compute += entry.stats.cost.compute;
            c.off_control += entry.stats.cost.control;
        }
    }
    return c;
}

Counters
Counters::minus(const Counters &b) const
{
    Counters d = *this;
    d.events -= b.events;
    d.ordering_stalls -= b.ordering_stalls;
    d.cn_retries -= b.cn_retries;
    d.cn_timeouts -= b.cn_timeouts;
    d.cn_cwnd_decreases -= b.cn_cwnd_decreases;
    d.net_sent -= b.net_sent;
    d.net_drops -= b.net_drops;
    d.net_cross_rack -= b.net_cross_rack;
    d.net_pfc_stall_ticks -= b.net_pfc_stall_ticks;
    d.mn_fastpath_reqs -= b.mn_fastpath_reqs;
    d.mn_nacks -= b.mn_nacks;
    // Page faults stay cumulative: set-up is where eager population
    // moves them, and that is what the counter is there to show.
    d.mn_offload_calls -= b.mn_offload_calls;
    d.tlb_hits -= b.tlb_hits;
    d.tlb_misses -= b.tlb_misses;
    d.off_dispatches -= b.off_dispatches;
    d.off_wait_ticks -= b.off_wait_ticks;
    d.off_busy_ticks -= b.off_busy_ticks;
    d.off_calls -= b.off_calls;
    d.off_errors -= b.off_errors;
    d.off_translate -= b.off_translate;
    d.off_dram -= b.off_dram;
    d.off_compute -= b.off_compute;
    d.off_control -= b.off_control;
    return d;
}

// ---------------------------------------------------------------------
// Payload pattern: a 16 B header naming the address and the version
// written, then a fill byte derived from both. Version 0 means "never
// written", which reads back as zeros.
// ---------------------------------------------------------------------

namespace {

std::uint8_t
fillByte(std::uint64_t id, std::uint64_t version)
{
    return static_cast<std::uint8_t>((version * 131) ^ (id * 7) ^ 0x5A);
}

void
fillPattern(std::uint8_t *buf, std::size_t len, std::uint64_t id,
            std::uint64_t version)
{
    std::memcpy(buf, &id, 8);
    std::memcpy(buf + 8, &version, 8);
    std::memset(buf + 16, fillByte(id, version), len - 16);
}

bool
allBytes(const std::uint8_t *buf, std::size_t len, std::uint8_t b)
{
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < len; i++)
        acc |= static_cast<std::uint8_t>(buf[i] ^ b);
    return acc == 0;
}

/** Version held in `buf` for address `id`, or -1 when the bytes are
 * not a pattern of that address (torn, foreign, or corrupt). */
std::int64_t
decodePattern(const std::uint8_t *buf, std::size_t len, std::uint64_t id)
{
    std::uint64_t got_id = 0, version = 0;
    std::memcpy(&got_id, buf, 8);
    std::memcpy(&version, buf + 8, 8);
    if (got_id == 0 && version == 0)
        return allBytes(buf + 16, len - 16, 0) ? 0 : -1;
    if (got_id != id || version == 0 ||
        !allBytes(buf + 16, len - 16, fillByte(id, version)))
        return -1;
    return static_cast<std::int64_t>(version);
}

/** Tag space per actor: ops of one closed-loop step. */
constexpr std::uint64_t kTagStride = 64;

/** Host-timed chunks per measured phase. */
constexpr std::uint64_t kChunks = 16;

/** Cap on recorded probe inputs. */
constexpr std::size_t kMaxProbeInputs = 65536;

/** Model configuration derived from the run seed. */
ModelConfig
suiteConfig(std::uint64_t seed, EventQueueImpl impl)
{
    // The struct defaults are the FPGA prototype; prototype() would also
    // read CLIO_SEED / CLIO_OFFLOAD_ENGINES, which a benchmark run must
    // not depend on.
    ModelConfig cfg;
    cfg.seed = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
    cfg.event_queue_impl = impl;
    return cfg;
}

constexpr std::uint32_t kKvOffloadId = 1;

} // namespace

// ---------------------------------------------------------------------
// Workload base
// ---------------------------------------------------------------------

Workload::Workload(const WorkloadSpec &spec, std::uint64_t seed,
                   EventQueueImpl impl)
    : spec_(spec), seed_(seed), cfg_(suiteConfig(seed, impl))
{
}

void
Workload::setup(SetupTimes &times)
{
    auto t0 = HostClock::now();
    cluster_ = build();
    times.cluster_build_s = secondsSince(t0);
    t0 = HostClock::now();
    populate();
    times.populate_s = secondsSince(t0);
    t0 = HostClock::now();
    if (spec_.warmup > 0) {
        warmup_ = PhaseResult{};
        run(spec_.warmup, warmup_);
    }
    times.warmup_s = secondsSince(t0);
}

PhaseResult
Workload::measure(std::uint64_t ops, Tracer *tracer,
                  std::vector<ProbeInput> *inputs)
{
    Cluster &c = *cluster_;
    tracer_ = tracer;
    inputs_ = inputs;
    digest_ = Digest{};
    for (std::uint32_t i = 0; i < c.cnCount(); i++)
        c.cn(i).rttHistogram().reset();
    c.network().resetStats();
    const Counters base = Counters::read(c);

    PhaseResult out;
    out.latency.reserve(ops);
    out.sim_start = c.eventQueue().now();
    out.chunk_ops = chunk_left_ = std::max<std::uint64_t>(ops / kChunks, 1);
    chunk_cal_s_ = calibrate();
    const auto t0 = HostClock::now();
    chunk_t0_ = t0;
    run(ops, out);
    out.host_s = secondsSince(t0);
    chunk_left_ = 0;
    out.sim_end = c.eventQueue().now();
    out.ops = ops;
    digest_.add(out.sim_end);
    digest_.add(c.eventQueue().executed());
    out.digest = digest_.value();
    if (out.latency.size() != ops)
        violation(out, "completions (" +
                           std::to_string(out.latency.size()) +
                           ") != ops issued (" + std::to_string(ops) + ")");

    out.delta = Counters::read(c).minus(base);
    LatencyHistogram rtt;
    for (std::uint32_t i = 0; i < c.cnCount(); i++)
        rtt.merge(c.cn(i).rttHistogram());
    out.rtt_p50_us = ticksToUs(rtt.percentile(50));
    out.rtt_p99_us = ticksToUs(rtt.percentile(99));
    out.peak_queue_depth = c.network().stats().peak_queue_depth;
    std::uint64_t chunks = 0;
    for (std::uint32_t i = 0; i < c.mnCount(); i++) {
        chunks += c.mn(i).memory().materializedChunks();
        out.mem_pressure =
            std::max(out.mem_pressure, c.mn(i).memoryPressure());
        out.offload_engines +=
            c.mn(i).offloadRuntime().scheduler().engineCount();
    }
    out.host_chunks_mb = static_cast<double>(chunks) * 64.0 / 1024.0;
    tracer_ = nullptr;
    inputs_ = nullptr;
    return out;
}

void
Workload::complete(PhaseResult &out, Status status, Tick latency)
{
    out.latency.push_back(latency);
    if (status != Status::kOk)
        out.failed++;
    digest_.add(static_cast<std::uint64_t>(status));
    digest_.add(latency);
    if (chunk_left_ > 0 && --chunk_left_ == 0) {
        const double host_s = secondsSince(chunk_t0_);
        double cal_s = 0;
        {
            SpanScope s(tracer_, Span::kCalibrate, next_op_);
            cal_s = calibrate();
        }
        out.chunks.push_back({host_s, 0.5 * (chunk_cal_s_ + cal_s)});
        chunk_cal_s_ = cal_s;
        chunk_left_ = out.chunk_ops;
        chunk_t0_ = HostClock::now();
    }
}

void
Workload::violation(PhaseResult &out, const std::string &what)
{
    if (out.integrity_errors++ == 0)
        out.first_error = spec_.name + ": " + what;
}

void
Workload::recordInput(ProbeInput in)
{
    if (inputs_ && inputs_->size() < kMaxProbeInputs)
        inputs_->push_back(std::move(in));
}

// ---------------------------------------------------------------------
// Closed loop: each actor keeps one step (one op or one batch) in
// flight and issues the next only when every op of the step completed.
// ---------------------------------------------------------------------

namespace {

class ClosedLoop : public Workload
{
  protected:
    using Workload::Workload;

    struct Actor
    {
        ClioClient *client = nullptr;
        Tick submitted = 0;
        std::uint32_t remaining = 0;
    };

    /** Stage and submit actor `a`'s next step of `n` ops, tagging
     * completions a * kTagStride + op index. */
    virtual void issue(std::size_t a, std::uint32_t n,
                       CompletionQueue &cq) = 0;
    /** Check the completion of op `i` of actor `a`'s current step. */
    virtual void check(std::size_t a, std::uint32_t i, Completion &c,
                       PhaseResult &out) = 0;

    void
    run(std::uint64_t ops, PhaseResult &out) override
    {
        EventQueue &eq = cluster_->eventQueue();
        CompletionQueue cq(eq);
        std::uint64_t issued = 0, done = 0;
        const auto next = [&](std::size_t a) {
            if (issued >= ops)
                return;
            const auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(per_step_, ops - issued));
            actors_[a].submitted = eq.now();
            actors_[a].remaining = n;
            issue(a, n, cq);
            issued += n;
        };
        {
            SpanScope g(tracer_, Span::kGenStep, next_op_);
            for (std::size_t a = 0; a < actors_.size(); a++)
                next(a);
        }
        std::vector<Completion> comps;
        while (done < issued) {
            {
                SpanScope p(tracer_, Span::kSimPump, next_op_);
                comps = cq.rpoll_cq(kTagStride);
            }
            if (comps.empty()) {
                violation(out, "completion queue drained early");
                return;
            }
            SpanScope g(tracer_, Span::kGenStep, next_op_);
            for (Completion &c : comps) {
                const std::size_t a = c.tag / kTagStride;
                const auto i = static_cast<std::uint32_t>(c.tag % kTagStride);
                Actor &act = actors_[a];
                complete(out, c.status, c.completed_at - act.submitted);
                if (c.ok())
                    check(a, i, c, out);
                done++;
                if (--act.remaining == 0)
                    next(a);
            }
        }
    }

    std::vector<Actor> actors_;
    std::uint32_t per_step_ = 1;
};

// ---------------------------------------------------------------------
// rw_async_1k and tlb_zipf_64b: reads and writes of a fixed size over
// per-client pages, batched, checked against a per-process shadow.
// ---------------------------------------------------------------------

struct DataShape
{
    std::uint32_t clients;
    std::uint32_t pages;    ///< 4 MiB pages per client
    std::uint32_t slots;    ///< op-sized slots used per page
    std::uint32_t size;     ///< op payload bytes
    std::uint32_t per_step; ///< ops per SubmissionBatch
    double read_frac;
    bool distinct_pages;    ///< a batch never repeats a page
    double zipf_theta;      ///< 0 = uniform page choice
    std::uint64_t mn_phys_bytes;
};

class DataLoop : public ClosedLoop
{
  public:
    DataLoop(const WorkloadSpec &spec, std::uint64_t seed,
             EventQueueImpl impl, const DataShape &shape)
        : ClosedLoop(spec, seed, impl), shape_(shape),
          rng_(seed ^ 0xD1B54A32D192ED03ull)
    {
        per_step_ = shape.per_step;
    }

  protected:
    struct Staged
    {
        std::uint64_t id = 0;
        std::uint64_t version = 0; ///< expected (read) / written (write)
        bool is_read = false;
    };

    std::unique_ptr<Cluster>
    build() override
    {
        return std::make_unique<Cluster>(cfg_, 1, 1, shape_.mn_phys_bytes);
    }

    void
    populate() override
    {
        const std::uint64_t page = cfg_.page_table.page_size;
        actors_.resize(shape_.clients);
        base_.resize(shape_.clients);
        staged_.assign(std::size_t{shape_.clients} * shape_.per_step, {});
        bufs_.assign(std::size_t{shape_.clients} * shape_.per_step *
                         shape_.size,
                     0);
        scratch_.assign(shape_.size, 0);
        shadow_.assign(std::size_t{shape_.clients} * shape_.pages *
                           shape_.slots,
                       0);
        order_.resize(shape_.pages);
        for (std::uint32_t c = 0; c < shape_.clients; c++) {
            ClioClient &client = cluster_->createClient(0);
            actors_[c].client = &client;
            // Frames are bound at allocation, so the measured phase takes
            // no page faults.
            const Result<VirtAddr> va =
                client.ralloc(std::uint64_t{shape_.pages} * page,
                              kPermReadWrite, /*populate=*/true);
            clio_assert(va.ok(), "suite: ralloc failed in set-up");
            base_[c] = *va;
            if (shape_.zipf_theta > 0)
                zipf_.emplace_back(shape_.pages, shape_.zipf_theta,
                                   seed_ * 1000003 + c);
        }
    }

    std::uint32_t
    pickPage(std::size_t a, std::uint32_t i)
    {
        if (shape_.zipf_theta > 0)
            return static_cast<std::uint32_t>(zipf_[a].next());
        if (shape_.distinct_pages) {
            // Partial Fisher-Yates: op i takes a page no earlier op of
            // this batch took.
            if (i == 0)
                std::iota(order_.begin(), order_.end(), 0u);
            const auto j = i + static_cast<std::uint32_t>(
                                   rng_.uniformInt(shape_.pages - i));
            std::swap(order_[i], order_[j]);
            return order_[i];
        }
        return static_cast<std::uint32_t>(rng_.uniformInt(shape_.pages));
    }

    void
    issue(std::size_t a, std::uint32_t n, CompletionQueue &cq) override
    {
        const std::uint64_t page_size = cfg_.page_table.page_size;
        ClioClient &client = *actors_[a].client;
        SubmissionBatch batch(client);
        for (std::uint32_t i = 0; i < n; i++) {
            const std::uint32_t page = pickPage(a, i);
            const auto slot =
                static_cast<std::uint32_t>(rng_.uniformInt(shape_.slots));
            const VirtAddr addr = base_[a] + page * page_size +
                                  std::uint64_t{slot} * shape_.size;
            std::uint32_t &shadow =
                shadow_[(a * shape_.pages + page) * shape_.slots + slot];
            Staged &st = staged_[a * shape_.per_step + i];
            st.id = (std::uint64_t{a + 1} << 48) |
                    (std::uint64_t{page} << 24) | slot;
            st.is_read = rng_.chance(shape_.read_frac);
            // The shadow advances in staging order, which is the order
            // T2 enforces between conflicting ops of one process.
            if (st.is_read) {
                st.version = shadow;
                batch.read(addr, buf(a, i), shape_.size);
            } else {
                st.version = ++shadow;
                fillPattern(scratch_.data(), shape_.size, st.id,
                            st.version);
                batch.write(addr, scratch_.data(), shape_.size);
            }
            if (inputs_)
                recordInput({st.is_read ? MsgType::kRead : MsgType::kWrite,
                             client.pid(), addr, shape_.size, 0, {}});
            next_op_++;
        }
        submitSpan([&] { batch.submit(cq, a * kTagStride, 1); });
    }

    void
    check(std::size_t a, std::uint32_t i, Completion &,
          PhaseResult &out) override
    {
        const Staged &st = staged_[a * shape_.per_step + i];
        out.payload_bytes += shape_.size;
        if (!st.is_read)
            return;
        const std::int64_t got = decodePattern(buf(a, i), shape_.size, st.id);
        if (got != static_cast<std::int64_t>(st.version))
            violation(out, "read of " + std::to_string(st.id) +
                               " returned version " + std::to_string(got) +
                               ", last write issued was " +
                               std::to_string(st.version));
    }

    std::uint8_t *
    buf(std::size_t a, std::uint32_t i)
    {
        return bufs_.data() + (a * shape_.per_step + i) * shape_.size;
    }

    DataShape shape_;
    Rng rng_;
    std::vector<ZipfianGenerator> zipf_;
    std::vector<VirtAddr> base_;
    std::vector<Staged> staged_;
    std::vector<std::uint8_t> bufs_;
    std::vector<std::uint8_t> scratch_;
    std::vector<std::uint32_t> shadow_;
    std::vector<std::uint32_t> order_;
};

// ---------------------------------------------------------------------
// kv_ycsb_b: Clio-KV offload, YCSB-B, one call in flight per actor.
// ---------------------------------------------------------------------

class KvLoop : public ClosedLoop
{
  public:
    static constexpr std::uint32_t kKeys = 20000;
    static constexpr std::uint32_t kValueBytes = 1024;
    static constexpr std::uint32_t kActors = 8;

    KvLoop(const WorkloadSpec &spec, std::uint64_t seed, EventQueueImpl impl)
        : ClosedLoop(spec, seed, impl),
          ycsb_(kKeys, YcsbWorkload::kB, /*zipf=*/true, 0.99, seed)
    {
        per_step_ = 1;
    }

    std::uint32_t offloadId() const override { return kKvOffloadId; }

  protected:
    std::unique_ptr<Cluster>
    build() override
    {
        auto cluster = std::make_unique<Cluster>(cfg_, 1, 2);
        for (std::uint32_t m = 0; m < cluster->mnCount(); m++)
            cluster->mn(m).registerOffload(
                ClioKvOffload::descriptor(kKvOffloadId),
                std::make_shared<ClioKvOffload>());
        return cluster;
    }

    std::string
    value(std::uint32_t key, std::uint64_t version) const
    {
        std::string v(kValueBytes, '\0');
        fillPattern(reinterpret_cast<std::uint8_t *>(v.data()), v.size(),
                    key + 1, version);
        return v;
    }

    void
    populate() override
    {
        keys_.resize(kKeys);
        for (std::uint32_t k = 0; k < kKeys; k++)
            keys_[k] = YcsbGenerator::keyString(k);
        actors_.resize(kActors);
        for (Actor &a : actors_)
            a.client = &cluster_->createClient(0);
        std::vector<NodeId> mns;
        for (std::uint32_t m = 0; m < cluster_->mnCount(); m++)
            mns.push_back(cluster_->mn(m).nodeId());
        kv_ = std::make_unique<ClioKvClient>(*actors_[0].client, mns,
                                             kKvOffloadId);
        // Every key starts at version 1, so every get finds its key.
        latest_.assign(kKeys, 1);
        for (std::uint32_t k = 0; k < kKeys; k++) {
            const bool ok = kv_->put(keys_[k], value(k, 1));
            clio_assert(ok, "suite: Clio-KV preload put failed");
        }
        staged_.assign(kActors, {});
    }

    void
    issue(std::size_t a, std::uint32_t, CompletionQueue &cq) override
    {
        ClioClient &client = *actors_[a].client;
        const YcsbOp op = ycsb_.next();
        const auto key = static_cast<std::uint32_t>(op.key_index);
        Staged &st = staged_[a];
        st.key = key;
        st.is_put = op.is_set;
        std::vector<std::uint8_t> arg =
            op.is_set ? kvEncode(KvOp::kPut, keys_[key],
                                 value(key, ++latest_[key]))
                      : kvEncode(KvOp::kGet, keys_[key]);
        const NodeId mn = kv_->mnForKey(keys_[key]);
        if (inputs_)
            recordInput({MsgType::kOffload, client.pid(), 0,
                         static_cast<std::uint32_t>(arg.size()),
                         cluster_->mnIndexOf(mn), arg});
        next_op_++;
        submitSpan([&] {
            HandlePtr h = client.offloadAsync(mn, kKvOffloadId,
                                              std::move(arg),
                                              op.is_set ? 256 : 1200);
            cq.watch(h, a * kTagStride);
        });
    }

    void
    check(std::size_t a, std::uint32_t, Completion &c,
          PhaseResult &out) override
    {
        const Staged &st = staged_[a];
        out.payload_bytes += kValueBytes;
        if (st.is_put)
            return;
        const std::int64_t got =
            c.value == 1 && c.data.size() == kValueBytes
                ? decodePattern(c.data.data(), c.data.size(), st.key + 1)
                : -1;
        if (got < 1 || static_cast<std::uint64_t>(got) > latest_[st.key])
            violation(out, "get of key " + std::to_string(st.key) +
                               " returned version " + std::to_string(got) +
                               ", latest put issued was " +
                               std::to_string(latest_[st.key]));
    }

    struct Staged
    {
        std::uint32_t key = 0;
        bool is_put = false;
    };

    YcsbGenerator ycsb_;
    std::vector<std::string> keys_;
    std::unique_ptr<ClioKvClient> kv_;
    std::vector<std::uint64_t> latest_;
    std::vector<Staged> staged_;
};

// ---------------------------------------------------------------------
// fabric_open: open-loop Poisson arrivals over a 4-rack leaf/spine
// cluster, owners plus cross-rack shared-RAS readers.
// ---------------------------------------------------------------------

class FabricOpen : public Workload
{
  public:
    static constexpr std::uint32_t kRacks = 4;
    static constexpr std::uint32_t kCnsPerRack = 2;
    static constexpr std::uint32_t kOwners = 1024;
    static constexpr std::uint32_t kRegion = 64 * 1024;
    static constexpr std::uint32_t kOpBytes = 256;
    static constexpr std::uint32_t kSlots = kRegion / kOpBytes;
    static constexpr double kReaderFrac = 0.25;

    FabricOpen(const WorkloadSpec &spec, std::uint64_t seed,
               EventQueueImpl impl)
        : Workload(spec, seed, impl), rng_(seed ^ 0x9FB21C651E98DF25ull),
          arrivals_(seed ^ 0x3C6EF372FE94F82Bull)
    {
    }

    double
    rackLocalHomeFrac() override
    {
        std::uint32_t local = 0;
        for (std::uint32_t o = 0; o < kOwners; o++) {
            const ProcId pid = owners_[o]->pid();
            const RackId cn_rack =
                cluster_->network().rackOf(owners_[o]->cnode().nodeId());
            if (cluster_->rackOfMn(cluster_->homeMnOf(pid)) == cn_rack)
                local++;
        }
        return static_cast<double>(local) / kOwners;
    }

    /** Latencies of the arrivals in the last quarter of the last run. */
    std::vector<Tick> last_quarter;

    AnchorResult anchor(std::uint64_t ops);

  protected:
    struct Rec
    {
        std::uint32_t owner = 0;
        std::uint32_t slot = 0;
        std::uint8_t kind = 0; ///< 0 owner read, 1 owner write, 2 reader
        std::uint64_t version = 0;
        std::uint64_t arrival = 0;
        Tick due = 0;
        std::unique_ptr<std::uint8_t[]> buf;
    };

    std::unique_ptr<Cluster>
    build() override
    {
        ClusterSpec spec;
        spec.racks = kRacks;
        spec.cns_per_rack = kCnsPerRack;
        spec.mns_per_rack = 2;
        spec.mn_phys_bytes = 4 * GiB;
        return std::make_unique<Cluster>(cfg_, spec);
    }

    void
    populate() override
    {
        const std::uint32_t cns = kRacks * kCnsPerRack;
        owners_.resize(kOwners);
        readers_.resize(kOwners);
        base_.resize(kOwners);
        for (std::uint32_t o = 0; o < kOwners; o++) {
            owners_[o] = &cluster_->createClient(o % cns);
            const Result<VirtAddr> va =
                owners_[o]->ralloc(kRegion, kPermReadWrite, true);
            clio_assert(va.ok(), "suite: owner ralloc failed in set-up");
            base_[o] = *va;
        }
        // Each owner's reader shares its RAS from a CN in the next rack,
        // so every reader read crosses the spine.
        for (std::uint32_t o = 0; o < kOwners; o++) {
            const std::uint32_t rack = (o % cns) / kCnsPerRack;
            const std::uint32_t cn = ((rack + 1) % kRacks) * kCnsPerRack +
                                     (o / cns) % kCnsPerRack;
            readers_[o] = &cluster_->createSharedClient(cn, *owners_[o]);
        }
        shadow_.assign(std::size_t{kOwners} * kSlots, 0);
    }

    std::uint32_t
    allocRec()
    {
        if (free_.empty()) {
            recs_.emplace_back();
            recs_.back().buf = std::make_unique<std::uint8_t[]>(kOpBytes);
            return static_cast<std::uint32_t>(recs_.size() - 1);
        }
        const std::uint32_t r = free_.back();
        free_.pop_back();
        return r;
    }

    void
    issueArrival(std::uint64_t arrival, Tick due, CompletionQueue &cq)
    {
        const std::uint32_t r = allocRec();
        Rec &rec = recs_[r];
        rec.owner = static_cast<std::uint32_t>(rng_.uniformInt(kOwners));
        rec.slot = static_cast<std::uint32_t>(rng_.uniformInt(kSlots));
        const double u = rng_.uniformDouble();
        rec.kind = u < kReaderFrac ? 2
                   : u < kReaderFrac + (1 - kReaderFrac) / 2 ? 0
                                                             : 1;
        rec.arrival = arrival;
        rec.due = due;
        const VirtAddr addr =
            base_[rec.owner] + std::uint64_t{rec.slot} * kOpBytes;
        std::uint32_t &shadow = shadow_[rec.owner * kSlots + rec.slot];
        ClioClient &client =
            rec.kind == 2 ? *readers_[rec.owner] : *owners_[rec.owner];
        if (rec.kind == 1) {
            rec.version = ++shadow;
            fillPattern(rec.buf.get(), kOpBytes, id(rec), rec.version);
        } else {
            rec.version = shadow;
        }
        if (inputs_)
            recordInput({rec.kind == 1 ? MsgType::kWrite : MsgType::kRead,
                         client.pid(), addr, kOpBytes,
                         cluster_->homeMnOf(client.pid()), {}});
        next_op_++;
        submitSpan([&] {
            HandlePtr h =
                rec.kind == 1
                    ? client.rwriteAsync(addr, rec.buf.get(), kOpBytes)
                    : client.rreadAsync(addr, rec.buf.get(), kOpBytes);
            cq.watch(h, r);
        });
    }

    static std::uint64_t
    id(const Rec &rec)
    {
        return (std::uint64_t{rec.owner + 1} << 24) | rec.slot;
    }

    void
    onCompletion(Completion &c, std::uint64_t total, PhaseResult &out)
    {
        const auto r = static_cast<std::uint32_t>(c.tag);
        Rec &rec = recs_[r];
        const Tick latency = c.completed_at - rec.due;
        complete(out, c.status, latency);
        if (rec.arrival >= total - total / 4)
            last_quarter.push_back(latency);
        if (c.ok()) {
            out.payload_bytes += kOpBytes;
            const std::int64_t got =
                rec.kind == 1 ? 0
                              : decodePattern(rec.buf.get(), kOpBytes, id(rec));
            if (rec.kind == 0 &&
                got != static_cast<std::int64_t>(rec.version)) {
                violation(out, "owner read of " + std::to_string(id(rec)) +
                                   " returned version " +
                                   std::to_string(got) + ", expected " +
                                   std::to_string(rec.version));
            } else if (rec.kind == 2 &&
                       (got < 0 ||
                        got > shadow_[rec.owner * kSlots + rec.slot])) {
                // A shared-RAS reader races the owner, so any version
                // already written is legal — but only those.
                violation(out, "reader read of " + std::to_string(id(rec)) +
                                   " returned version " +
                                   std::to_string(got));
            }
        }
        free_.push_back(r);
    }

    void
    run(std::uint64_t arrivals, PhaseResult &out) override
    {
        EventQueue &eq = cluster_->eventQueue();
        CompletionQueue cq(eq);
        last_quarter.clear();
        const double mean_gap = static_cast<double>(kMicrosecond) /
                                spec_.rate_mops;
        Tick due = eq.now();
        std::vector<Completion> comps;
        for (std::uint64_t i = 0; i < arrivals; i++) {
            due += static_cast<Tick>(arrivals_.exponential(mean_gap));
            {
                SpanScope p(tracer_, Span::kSimPump, next_op_);
                eq.runUntilTime(due);
            }
            SpanScope g(tracer_, Span::kGenStep, next_op_);
            if (cq.ready() > 0) {
                comps = cq.poll(cq.ready());
                for (Completion &c : comps)
                    onCompletion(c, arrivals, out);
            }
            issueArrival(i, due, cq);
        }
        while (cq.outstanding() > 0 || cq.ready() > 0) {
            {
                SpanScope p(tracer_, Span::kSimPump, next_op_);
                comps = cq.rpoll_cq(256);
            }
            SpanScope g(tracer_, Span::kGenStep, next_op_);
            for (Completion &c : comps)
                onCompletion(c, arrivals, out);
        }
    }

    Rng rng_;
    Rng arrivals_;
    std::vector<ClioClient *> owners_;
    std::vector<ClioClient *> readers_;
    std::vector<VirtAddr> base_;
    std::vector<std::uint32_t> shadow_;
    std::vector<Rec> recs_;
    std::vector<std::uint32_t> free_;
};

AnchorResult
FabricOpen::anchor(std::uint64_t ops)
{
    AnchorResult res;
    // First owner whose home MN shares its rack: a rack-local path.
    std::uint32_t o = 0;
    while (o < kOwners &&
           cluster_->rackOfMn(cluster_->homeMnOf(owners_[o]->pid())) !=
               cluster_->network().rackOf(owners_[o]->cnode().nodeId()))
        o++;
    if (o == kOwners) {
        res.integrity_ok = false;
        return res;
    }
    ClioClient &client = *owners_[o];
    EventQueue &eq = cluster_->eventQueue();
    std::vector<Tick> lat;
    lat.reserve(ops);
    std::uint8_t out[16], in[16];
    const std::uint64_t tag = 0xA11C0000ull + o;
    for (std::uint64_t i = 0; i < ops; i++) {
        const Tick t0 = eq.now();
        Status s;
        if (i % 2 == 0) {
            fillPattern(out, sizeof(out), tag, i / 2 + 1);
            s = client.rwrite(base_[o], out, sizeof(out));
        } else {
            s = client.rread(base_[o], in, sizeof(in));
            if (decodePattern(in, sizeof(in), tag) !=
                static_cast<std::int64_t>(i / 2 + 1))
                res.integrity_ok = false;
        }
        if (s != Status::kOk)
            res.integrity_ok = false;
        lat.push_back(eq.now() - t0);
    }
    res.samples = lat.size();
    res.p50_us = ticksToUs(percentile(lat, 50));
    res.p99_us = ticksToUs(percentile(lat, 99));
    return res;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, std::uint64_t seed,
             EventQueueImpl impl)
{
    if (spec.name == "kv_ycsb_b")
        return std::make_unique<KvLoop>(spec, seed, impl);
    if (spec.name == "rw_async_1k") {
        // Fig. 8 shape: 8 clients x 8 x 1 KiB ops on distinct pages.
        const DataShape shape{8, 16, 64, 1024, 8, 0.5, true, 0.0, 0};
        return std::make_unique<DataLoop>(spec, seed, impl, shape);
    }
    if (spec.name == "tlb_zipf_64b") {
        // 8 x 256 pages against a 1024-entry TLB, zipf 0.9 per client.
        const DataShape shape{8, 256, 8, 64, 4, 0.9, false, 0.9, 16 * GiB};
        return std::make_unique<DataLoop>(spec, seed, impl, shape);
    }
    if (spec.name == "fabric_open")
        return std::make_unique<FabricOpen>(spec, seed, impl);
    return nullptr;
}

AnchorResult
runAnchor(Workload &fabric, std::uint64_t ops)
{
    auto *f = dynamic_cast<FabricOpen *>(&fabric);
    clio_assert(f != nullptr, "the paper anchor runs on fabric_open");
    return f->anchor(ops);
}

bool
RateSearch::monotone() const
{
    double max_pass = -1, min_fail = 1e300;
    for (const RateTrial &t : trials) {
        if (t.pass)
            max_pass = std::max(max_pass, t.rate_mops);
        else
            min_fail = std::min(min_fail, t.rate_mops);
    }
    return max_pass < min_fail;
}

RateSearch
searchMaxRate(std::uint64_t seed, std::uint64_t arrivals_per_trial)
{
    RateSearch search;
    const auto trial = [&](std::uint32_t rate) {
        WorkloadSpec spec = *findSpec("fabric_open");
        spec.rate_mops = rate;
        spec.warmup = 0;
        FabricOpen wl(spec, seed, EventQueueImpl::kTimingWheel);
        SetupTimes times;
        wl.setup(times);
        PhaseResult r = wl.measure(arrivals_per_trial, nullptr, nullptr);
        RateTrial t;
        t.rate_mops = rate;
        t.p99_us = ticksToUs(percentile(r.latency, 99));
        t.last_quarter_p99_us = ticksToUs(percentile(wl.last_quarter, 99));
        t.pass = r.failed == 0 && t.p99_us <= ticksToUs(kSloP99) &&
                 t.last_quarter_p99_us <= ticksToUs(kSloP99);
        if (r.integrity_errors > 0)
            search.integrity_ok = false;
        search.trials.push_back(t);
        return t.pass;
    };
    // Bracket by doubling from the workload's own rate, then bisect to
    // 1 Mops/s.
    // 1 Mops/s (rate 0 passes by definition).
    std::uint32_t lo = 0;
    std::uint32_t hi = static_cast<std::uint32_t>(
        findSpec("fabric_open")->rate_mops);
    while (hi <= 1024 && trial(hi)) {
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > 1) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        (trial(mid) ? lo : hi) = mid;
    }
    search.max_rate_mops = lo;
    return search;
}

} // namespace clio::suite
