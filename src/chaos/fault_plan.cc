#include "chaos/fault_plan.hh"

#include <algorithm>

#include "cluster/cluster.hh"
#include "sim/logging.hh"

namespace clio {

FaultPlan &
FaultPlan::add(Tick at, FaultAction::Kind kind, std::uint32_t target)
{
    actions_.push_back({at, kind, target});
    return *this;
}

FaultPlan &
FaultPlan::packetFaults(const PacketFaultWindow &window)
{
    clio_assert(window.end > window.start,
                "packet-fault window must have positive length");
    windows_.push_back(window);
    return *this;
}

Tick
FaultPlan::horizon() const
{
    Tick h = 0;
    for (const auto &a : actions_)
        h = std::max(h, a.at);
    for (const auto &w : windows_)
        h = std::max(h, w.end);
    return h;
}

void
FaultPlan::addOutages(Rng &rng, const RandomOpts &opts,
                      std::vector<std::uint32_t> victims,
                      std::uint32_t count, FaultAction::Kind down,
                      FaultAction::Kind up)
{
    // Pick distinct victims by a seeded Fisher-Yates shuffle prefix.
    for (std::size_t i = victims.size(); i > 1; i--) {
        const std::size_t j =
            static_cast<std::size_t>(rng.uniformInt(i));
        std::swap(victims[i - 1], victims[j]);
    }
    const std::uint32_t n = std::min<std::uint32_t>(
        count, static_cast<std::uint32_t>(victims.size()));
    for (std::uint32_t i = 0; i < n; i++) {
        // Go down somewhere in the first ~70% of the run, leaving time
        // for the restart + recovery traffic before the horizon.
        const Tick at = rng.uniformRange(opts.duration / 10,
                                         (opts.duration * 7) / 10);
        const Tick downtime = opts.max_downtime > opts.min_downtime
                                  ? rng.uniformRange(opts.min_downtime,
                                                     opts.max_downtime)
                                  : opts.min_downtime;
        // Every schedule recovers: the restart always lands inside
        // the plan (clamped, never dropped).
        Tick back = at + std::max<Tick>(downtime, 1);
        if (back >= opts.duration)
            back = opts.duration - 1;
        add(at, down, victims[i]);
        add(std::max(back, at + 1), up, victims[i]);
    }
}

FaultPlan
FaultPlan::randomized(std::uint64_t seed, const RandomOpts &opts)
{
    clio_assert(opts.duration > 0, "randomized plan needs a duration");
    clio_assert(!opts.candidates.empty(),
                "randomized plan needs crash candidates");
    FaultPlan plan;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC8A05);

    // The MN victims are shuffled even when no crash is asked for, so
    // every later draw stays where older builds made it.
    plan.addOutages(rng, opts, opts.candidates, opts.crashes,
                    FaultAction::Kind::kCrashMn,
                    FaultAction::Kind::kRestartMn);

    if (opts.drop_rate > 0 || opts.corrupt_rate > 0 ||
        opts.duplicate_rate > 0) {
        PacketFaultWindow w;
        w.start = 0;
        w.end = opts.duration;
        w.drop_rate = opts.drop_rate;
        w.corrupt_rate = opts.corrupt_rate;
        w.duplicate_rate = opts.duplicate_rate;
        plan.packetFaults(w);
    }

    // Every extension below draws from the rng only when its knob is
    // set, strictly after all the draws above — schedules that don't
    // use the new knobs replay byte-identically to older builds.
    if (opts.cn_crashes > 0) {
        plan.addOutages(rng, opts, opts.cn_candidates, opts.cn_crashes,
                        FaultAction::Kind::kCrashCn,
                        FaultAction::Kind::kRestartCn);
    }
    if (opts.rack_kills > 0) {
        plan.addOutages(rng, opts, opts.rack_candidates, opts.rack_kills,
                        FaultAction::Kind::kKillRack,
                        FaultAction::Kind::kRestoreRack);
    }

    if (opts.hb_loss_rate > 0 && opts.hb_loss_duration > 0) {
        const Tick len =
            std::min(opts.hb_loss_duration, opts.duration - 1);
        const Tick start =
            rng.uniformRange(opts.duration / 10,
                             std::max<Tick>(opts.duration / 10 + 1,
                                            opts.duration - len));
        PacketFaultWindow w;
        w.start = start;
        w.end = std::min<Tick>(start + len, opts.duration);
        w.drop_rate = opts.hb_loss_rate;
        w.heartbeats_only = true;
        plan.packetFaults(w);
    }
    return plan;
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

FaultInjector::FaultInjector(Cluster &cluster, FaultPlan plan,
                             std::uint64_t seed)
    : cluster_(cluster), plan_(std::move(plan)),
      rng_(seed * 0x2545F4914F6CDD1Dull + 0xFA017)
{
}

FaultInjector::~FaultInjector()
{
    if (armed_)
        cluster_.network().setFaultHook(nullptr);
}

void
FaultInjector::arm()
{
    clio_assert(!armed_, "injector already armed");
    armed_ = true;
    EventQueue &eq = cluster_.eventQueue();
    for (const FaultAction &action : plan_.actions()) {
        // Plans are authored against t=0, but the harness may have
        // burned sim time on setup (allocations, replica creation)
        // before arming. Clamp to "no earlier than now": setup time is
        // itself deterministic, so the clamp replays identically.
        const Tick at = std::max(action.at, eq.now());
        eq.schedule(at, [this, action] { fire(action); });
    }
    if (!plan_.windows().empty()) {
        cluster_.network().setFaultHook(
            [this](const Packet &pkt) { return onHop(pkt); });
    }
}

void
FaultInjector::fire(const FaultAction &action)
{
    switch (action.kind) {
      case FaultAction::Kind::kCrashMn:
        cluster_.crashMn(action.target);
        stats_.crashes++;
        break;
      case FaultAction::Kind::kRestartMn:
        cluster_.restartMn(action.target);
        stats_.restarts++;
        break;
      case FaultAction::Kind::kKillRack:
        cluster_.killRack(action.target);
        stats_.rack_kills++;
        break;
      case FaultAction::Kind::kRestoreRack:
        cluster_.restoreRack(action.target);
        stats_.rack_restores++;
        break;
      case FaultAction::Kind::kCrashCn:
        cluster_.crashCn(action.target);
        stats_.cn_crashes++;
        break;
      case FaultAction::Kind::kRestartCn:
        cluster_.restartCn(action.target);
        stats_.cn_restarts++;
        break;
    }
}

FaultVerdict
FaultInjector::onHop(const Packet &pkt)
{
    FaultVerdict v;
    const Tick now = cluster_.eventQueue().now();
    for (const PacketFaultWindow &w : plan_.windows()) {
        if (now < w.start || now >= w.end)
            continue;
        if (w.heartbeats_only && pkt.type != MsgType::kHeartbeat)
            continue; // no draw: data packets don't consume rng state
        // One Bernoulli draw per configured fault per active window:
        // the draw sequence depends only on packet traversal order,
        // which is itself deterministic.
        if (w.drop_rate > 0 && rng_.chance(w.drop_rate)) {
            stats_.drops++;
            v.drop = true;
            return v; // dropped: no further faults apply
        }
        if (w.corrupt_rate > 0 && rng_.chance(w.corrupt_rate)) {
            stats_.corrupts++;
            v.corrupt = true;
        }
        if (w.duplicate_rate > 0 && rng_.chance(w.duplicate_rate)) {
            stats_.duplicates++;
            v.duplicate = true;
        }
    }
    return v;
}

} // namespace clio
