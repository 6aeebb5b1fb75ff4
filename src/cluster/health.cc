#include "cluster/health.hh"

#include <algorithm>
#include <utility>

#include "proto/messages.hh"
#include "sim/logging.hh"

namespace clio {

const char *
to_string(NodeHealth h)
{
    switch (h) {
      case NodeHealth::kAlive:
        return "Alive";
      case NodeHealth::kSuspected:
        return "Suspected";
      case NodeHealth::kDead:
        return "Dead";
    }
    return "?";
}

const char *
to_string(HealthEvent::Kind k)
{
    switch (k) {
      case HealthEvent::Kind::kSuspected:
        return "Suspected";
      case HealthEvent::Kind::kDead:
        return "Dead";
      case HealthEvent::Kind::kRejoined:
        return "Rejoined";
      case HealthEvent::Kind::kSilentRestart:
        return "SilentRestart";
      case HealthEvent::Kind::kResyncStarted:
        return "ResyncStarted";
      case HealthEvent::Kind::kResyncCompleted:
        return "ResyncCompleted";
      case HealthEvent::Kind::kResyncFailed:
        return "ResyncFailed";
    }
    return "?";
}

// ---------------------------------------------------------------------
// FailureDetector
// ---------------------------------------------------------------------

FailureDetector::FailureDetector(Tick suspect_after, Tick dead_after)
    : suspect_after_(suspect_after), dead_after_(dead_after)
{
    clio_assert(suspect_after > 0 && dead_after > suspect_after,
                "lease deadlines must satisfy 0 < suspect < dead");
}

FailureDetector::Entry *
FailureDetector::find(NodeId node)
{
    for (Entry &e : entries_) {
        if (e.node == node)
            return &e;
    }
    return nullptr;
}

const FailureDetector::Entry *
FailureDetector::find(NodeId node) const
{
    for (const Entry &e : entries_) {
        if (e.node == node)
            return &e;
    }
    return nullptr;
}

void
FailureDetector::track(NodeId node, Tick now)
{
    clio_assert(find(node) == nullptr, "node %u tracked twice", node);
    Entry e;
    e.node = node;
    e.last_beacon = now;
    entries_.push_back(e);
}

BeaconOutcome
FailureDetector::onBeacon(NodeId node, std::uint64_t incarnation,
                          Tick now)
{
    Entry *e = find(node);
    if (e == nullptr) {
        track(node, now);
        entries_.back().incarnation = incarnation;
        return BeaconOutcome::kNone;
    }
    BeaconOutcome outcome = BeaconOutcome::kNone;
    if (incarnation > e->incarnation) {
        // The node rebooted since its last beacon. If its lease never
        // expired, the crash+restart fit inside one window — volatile
        // state is gone all the same, so the caller must run the full
        // death + rejoin protocol.
        outcome = e->state == NodeHealth::kDead ? BeaconOutcome::kRejoined
                                                : BeaconOutcome::kRestarted;
    } else if (e->state == NodeHealth::kDead) {
        outcome = BeaconOutcome::kRejoined;
    } else if (e->state == NodeHealth::kSuspected) {
        outcome = BeaconOutcome::kRecovered;
    }
    e->incarnation = incarnation;
    e->last_beacon = now;
    e->state = NodeHealth::kAlive;
    return outcome;
}

std::vector<HealthTransition>
FailureDetector::sweep(Tick now)
{
    std::vector<HealthTransition> out;
    for (Entry &e : entries_) {
        if (e.state == NodeHealth::kAlive &&
            now >= e.last_beacon + suspect_after_) {
            out.push_back(
                {e.node, NodeHealth::kAlive, NodeHealth::kSuspected});
            e.state = NodeHealth::kSuspected;
        }
        if (e.state == NodeHealth::kSuspected &&
            now >= e.last_beacon + dead_after_) {
            out.push_back(
                {e.node, NodeHealth::kSuspected, NodeHealth::kDead});
            e.state = NodeHealth::kDead;
        }
    }
    return out;
}

Tick
FailureDetector::nextDeadline() const
{
    Tick deadline = kNoDeadline;
    for (const Entry &e : entries_) {
        if (e.state == NodeHealth::kAlive)
            deadline = std::min(deadline, e.last_beacon + suspect_after_);
        else if (e.state == NodeHealth::kSuspected)
            deadline = std::min(deadline, e.last_beacon + dead_after_);
    }
    return deadline;
}

NodeHealth
FailureDetector::stateOf(NodeId node) const
{
    const Entry *e = find(node);
    clio_assert(e != nullptr, "node %u is not tracked", node);
    return e->state;
}

// ---------------------------------------------------------------------
// HealthPlane
// ---------------------------------------------------------------------

HealthPlane::HealthPlane(Cluster &cluster)
    : cluster_(cluster), eq_(cluster.eventQueue()),
      net_(cluster.network()), cfg_(cluster.config().health),
      detector_(cfg_.suspect_after, cfg_.dead_after)
{
    clio_assert(cfg_.enabled, "health plane built while disabled");
    clio_assert(cfg_.heartbeat_period > 0, "heartbeat period must be >0");
    // The controller's NIC registers LAST: CN/MN node ids are exactly
    // what they would be without the health plane. It lives in rack 0;
    // chaos schedules that kill rack 0 take the controller with it
    // (tests keep the controller's rack out of the kill set).
    node_ = net_.addNode([this](Packet pkt) { onPacket(std::move(pkt)); });

    // Phase-stagger the beacons so they never synchronize into a burst
    // at the controller's link.
    const std::uint32_t total = cluster_.mnCount() + cluster_.cnCount();
    const Tick stagger =
        std::max<Tick>(1, cfg_.heartbeat_period / (total + 1));
    std::uint32_t slot = 0;
    for (std::uint32_t i = 0; i < cluster_.mnCount(); i++) {
        CBoard &mn = cluster_.mn(i);
        members_[mn.nodeId()] = {true, i};
        detector_.track(mn.nodeId(), eq_.now());
        mn.startHeartbeats(node_, cfg_.heartbeat_period, ++slot * stagger);
    }
    for (std::uint32_t i = 0; i < cluster_.cnCount(); i++) {
        CNode &cn = cluster_.cn(i);
        members_[cn.nodeId()] = {false, i};
        detector_.track(cn.nodeId(), eq_.now());
        cn.setEpoch(epoch_);
        // Fenced CNs re-fetch the epoch from the controller — a
        // control-plane RPC modeled as instantaneous.
        cn.setEpochRefresh([this] { return epoch_; });
        cn.startHeartbeats(node_, cfg_.heartbeat_period, ++slot * stagger);
    }
    scheduleCheck();
}

void
HealthPlane::onPacket(Packet pkt)
{
    if (pkt.type != MsgType::kHeartbeat)
        return; // stray traffic (e.g. a chaos-duplicated data packet)
    const auto &hb = static_cast<const HeartbeatMsg &>(*pkt.msg);
    stats_.beacons++;
    const BeaconOutcome outcome =
        detector_.onBeacon(hb.node, hb.incarnation, eq_.now());
    switch (outcome) {
      case BeaconOutcome::kNone:
      case BeaconOutcome::kRecovered:
        break;
      case BeaconOutcome::kRejoined:
        onNodeRejoined(hb.node);
        break;
      case BeaconOutcome::kRestarted:
        stats_.silent_restarts++;
        logEvent(HealthEvent::Kind::kSilentRestart, hb.node);
        onNodeDead(hb.node);
        onNodeRejoined(hb.node);
        break;
    }
    // The beacon moved its sender's lease deadline out.
    scheduleCheck();
}

void
HealthPlane::scheduleCheck()
{
    const Tick deadline = detector_.nextDeadline();
    if (deadline == FailureDetector::kNoDeadline)
        return; // nothing tracked is alive; beacons will re-arm us
    eq_.cancel(check_event_); // superseded by this sweep
    check_event_ = eq_.schedule(std::max(deadline, eq_.now()),
                                [this] { runSweep(); });
}

void
HealthPlane::runSweep()
{
    for (const HealthTransition &t : detector_.sweep(eq_.now())) {
        if (t.to == NodeHealth::kSuspected) {
            stats_.suspects++;
            logEvent(HealthEvent::Kind::kSuspected, t.node);
        } else if (t.to == NodeHealth::kDead) {
            onNodeDead(t.node);
        }
    }
    scheduleCheck();
}

void
HealthPlane::onNodeDead(NodeId node)
{
    const auto it = members_.find(node);
    clio_assert(it != members_.end(), "death of unknown node %u", node);
    // Every membership change bumps the epoch, whether or not anything
    // downstream reacts: epochs order VIEWS, not repairs.
    epoch_++;
    stats_.deaths++;
    logEvent(HealthEvent::Kind::kDead, node);
    if (it->second.first) {
        stats_.mn_deaths++;
        onMnDead(it->second.second);
    } else {
        stats_.cn_deaths++;
        cluster_.cn(it->second.second).setDeclaredDead(true);
        onCnDead(node);
    }
}

void
HealthPlane::onNodeRejoined(NodeId node)
{
    const auto it = members_.find(node);
    clio_assert(it != members_.end(), "rejoin of unknown node %u", node);
    epoch_++;
    stats_.rejoins++;
    logEvent(HealthEvent::Kind::kRejoined, node);
    if (it->second.first) {
        // Fence the rejoined board at the rejoin epoch: requests from
        // CNs still holding the pre-death view bounce (kEpochFenced)
        // instead of landing in the zombie's empty address space.
        CBoard &board = cluster_.mn(it->second.second);
        board.setEpochFence(epoch_);
        cluster_.onMnRejoined(it->second.second);
    } else {
        // A rejoined CN restarts with epoch 0, refreshed on first fence.
        cluster_.cn(it->second.second).setDeclaredDead(false);
    }
}

void
HealthPlane::onMnDead(std::uint32_t mn_index)
{
    // The cluster reacts first: it marks the dead MN's replicas and
    // re-homes its pids. Then replica repair: queue a resync for every
    // region left degraded, in region registration order.
    cluster_.onMnDeclaredDead(mn_index);
    for (const ReplicaRegistry::Entry &e :
         cluster_.replicaRegistry().entries()) {
        const ReplicatedRegion *r = e.region;
        if (r->degraded() && !r->bothDead() && !r->resyncActive() &&
            queued_.insert(e.id).second)
            pending_.push_back(e.id);
    }
    pumpResyncQueue();
}

void
HealthPlane::onCnDead(NodeId node)
{
    // Lease-based GC of what the dead CN's processes left on MNs.
    // First the locks: surviving sharers must be able to acquire them.
    for (std::uint32_t i = 0; i < cluster_.mnCount(); i++) {
        CBoard &mn = cluster_.mn(i);
        if (mn.alive())
            stats_.locks_reclaimed += mn.releaseLocksOwnedBy(node);
    }
    // Then per-process state, but only for pids that lived EXCLUSIVELY
    // on the dead CN — a pid shared with a surviving CN (shared RAS)
    // is still in use.
    std::map<ProcId, bool> exclusive;
    for (std::uint32_t i = 0; i < cluster_.clientCount(); i++) {
        ClioClient &c = cluster_.client(i);
        const bool on_dead = c.cnode().nodeId() == node;
        auto [slot, inserted] = exclusive.emplace(c.pid(), on_dead);
        if (!inserted)
            slot->second = slot->second && on_dead;
    }
    for (const auto &[pid, exclusively_dead] : exclusive) {
        if (!exclusively_dead)
            continue;
        for (std::uint32_t i = 0; i < cluster_.mnCount(); i++) {
            CBoard &mn = cluster_.mn(i);
            if (mn.alive())
                mn.destroyProcess(pid);
        }
        stats_.procs_destroyed++;
    }
}

// ---------------------------------------------------------------------
// Resync orchestration
// ---------------------------------------------------------------------

void
HealthPlane::pumpResyncQueue()
{
    while (active_resyncs_ < cfg_.max_concurrent_resyncs &&
           !pending_.empty()) {
        const std::uint64_t id = pending_.front();
        pending_.pop_front();
        ReplicatedRegion *r = cluster_.replicaRegistry().find(id);
        // Nothing to repair for a region destroyed while queued, nor for
        // one whose owning CN is down: it belongs to a dead process (a
        // restarted process re-creates its own regions).
        if (r == nullptr || !r->degraded() || r->bothDead() ||
            r->resyncActive() || !r->client().cnode().alive()) {
            queued_.erase(id);
            continue;
        }
        const NodeId replacement = pickReplacement(*r, id);
        if (replacement == kNoNode) {
            // No candidate MN right now (e.g. a whole rack is down):
            // retry after the backoff. The region stays queued.
            deferRequeue(id);
            continue;
        }
        const bool started = r->beginResync(
            replacement,
            [this, id](Status st) { onResyncDone(id, st == Status::kOk); });
        if (!started) {
            queued_.erase(id);
            continue;
        }
        active_resyncs_++;
        stats_.resyncs_started++;
        logEvent(HealthEvent::Kind::kResyncStarted, replacement, id);
    }
}

void
HealthPlane::onResyncDone(std::uint64_t region_id, bool success)
{
    clio_assert(active_resyncs_ > 0, "resync completion underflow");
    active_resyncs_--;
    if (success) {
        stats_.resyncs_completed++;
        logEvent(HealthEvent::Kind::kResyncCompleted, 0, region_id);
        queued_.erase(region_id);
    } else {
        stats_.resyncs_failed++;
        logEvent(HealthEvent::Kind::kResyncFailed, 0, region_id);
        const ReplicatedRegion *r = cluster_.replicaRegistry().find(region_id);
        if (r != nullptr && r->degraded() && !r->bothDead())
            deferRequeue(region_id); // still repairable: keep it queued
        else
            queued_.erase(region_id);
    }
    pumpResyncQueue();
}

void
HealthPlane::deferRequeue(std::uint64_t region_id)
{
    // The pump drops the id if the region is gone or repaired by then.
    stats_.resyncs_deferred++;
    eq_.scheduleAfter(cfg_.reheal_backoff, [this, region_id] {
        pending_.push_back(region_id);
        pumpResyncQueue();
    });
}

NodeId
HealthPlane::pickReplacement(const ReplicatedRegion &region,
                             std::uint64_t region_id) const
{
    const bool primary_dead = !region.primaryAlive();
    const NodeId survivor =
        primary_dead ? region.backupMn() : region.primaryMn();
    const NodeId dead = primary_dead ? region.primaryMn()
                                     : region.backupMn();
    const RackId rack = net_.rackOf(dead);
    // Prefer the shard ring: rack-aware, deterministic, and salted by
    // the stable region id so concurrent repairs spread over MNs.
    const ShardMap &ring = cluster_.shardMap();
    if (!ring.empty()) {
        for (std::uint32_t probe = 0; probe < 8; probe++) {
            const std::uint32_t idx = ring.ownerNear(
                static_cast<ProcId>(region_id + probe), 0, rack);
            CBoard &mn = cluster_.mn(idx);
            if (mn.alive() && mn.nodeId() != survivor)
                return mn.nodeId();
        }
    }
    // Fallback (one-rack clusters / exhausted probes): deterministic
    // index scan, same-rack first.
    for (int pass = 0; pass < 2; pass++) {
        for (std::uint32_t i = 0; i < cluster_.mnCount(); i++) {
            CBoard &mn = cluster_.mn(i);
            if (!mn.alive() || mn.nodeId() == survivor)
                continue;
            if (pass == 0 && net_.rackOf(mn.nodeId()) != rack)
                continue;
            return mn.nodeId();
        }
    }
    return kNoNode;
}

void
HealthPlane::logEvent(HealthEvent::Kind kind, NodeId node,
                      std::uint64_t region_id)
{
    HealthEvent e;
    e.kind = kind;
    e.at = eq_.now();
    e.node = node;
    e.region_id = region_id;
    events_.push_back(e);
}

} // namespace clio
