#include "clib/cnode.hh"

#include <algorithm>
#include <cmath>

#include "clib/client.hh"
#include "sim/logging.hh"

namespace clio {

CNode::CNode(EventQueue &eq, Network &network, const ModelConfig &cfg,
             RackId rack)
    : eq_(eq), net_(network), cfg_(cfg),
      heartbeat_(eq, network, [this](HeartbeatMsg &hb) {
          if (!alive_)
              return false;
          hb.epoch = epoch_;
          hb.incarnation = incarnation_;
          stats_.heartbeats_sent++;
          return true;
      })
{
    node_ = net_.addNode([this](Packet pkt) { onPacket(std::move(pkt)); },
                         rack);
}

std::size_t
CNode::mnIndex(NodeId mn)
{
    for (std::size_t i = 0; i < mn_ids_.size(); i++) {
        if (mn_ids_[i] == mn)
            return i;
    }
    mn_ids_.push_back(mn);
    PerMn st;
    st.cwnd = cfg_.clib.cwnd_init;
    mn_state_.push_back(st);
    mn_wait_.emplace_back();
    return mn_ids_.size() - 1;
}

double
CNode::cwnd(NodeId mn) const
{
    for (std::size_t i = 0; i < mn_ids_.size(); i++) {
        if (mn_ids_[i] == mn)
            return mn_state_[i].cwnd;
    }
    return cfg_.clib.cwnd_init;
}

std::uint32_t
CNode::allocSlot()
{
    if (!out_free_.empty()) {
        const std::uint32_t slot = out_free_.back();
        out_free_.pop_back();
        return slot;
    }
    out_slots_.emplace_back();
    return static_cast<std::uint32_t>(out_slots_.size() - 1);
}

void
CNode::freeSlot(std::uint32_t slot)
{
    // Drop the op's owned state but keep the slot body (and any vector
    // capacity inside a recycled message) for the next request.
    Outstanding &out = out_slots_[slot];
    out.req.reset();
    out.cb = nullptr;
    out.expected_resp_bytes = 0;
    out.sent_at = 0;
    out.retries = 0;
    out.timer = kNoEvent;
    out.last_fail_timeout = false;
    out.last_fail_fenced = false;
    out.resp_parts.reset();
    out.resp_corrupted = false;
    out_free_.push_back(slot);
}

void
CNode::issue(std::shared_ptr<RequestMsg> req,
             std::uint64_t expected_resp_bytes, Completion cb)
{
    if (!alive_) {
        // The node is down (health plane / chaos): the op fails
        // immediately — its issuing process no longer exists.
        failLater(std::move(cb), Status::kTimeout);
        return;
    }
    const ReqId id = newReqId();
    req->req_id = id;
    if (req->orig_req_id == 0)
        req->orig_req_id = id;
    req->src = node_;
    stats_.requests++;

    const NodeId mn = req->dst;
    const std::uint32_t slot = allocSlot();
    Outstanding &out = out_slots_[slot];
    out.req = std::move(req);
    out.cb = std::move(cb);
    out.expected_resp_bytes = expected_resp_bytes;
    out_index_.insert(id, slot);
    mn_wait_[mnIndex(mn)].push_back(id);
    trySend(mn);
}


void
CNode::pumpWaiting()
{
    // The incast window is one credit pool shared by every
    // destination: response bytes freed by a completion to one MN can
    // unblock a request queued for a different MN. Waking only the
    // completing MN's queue would strand the others forever (no timer
    // re-arms a queued-but-untransmitted request), so pump them all.
    for (std::size_t i = 0; i < mn_ids_.size(); i++)
        trySend(mn_ids_[i]);
}

void
CNode::trySend(NodeId mn)
{
    const std::size_t idx = mnIndex(mn);
    PerMn &st = mn_state_[idx];
    std::deque<ReqId> &wait = mn_wait_[idx];
    while (!wait.empty()) {
        // Congestion window admission (cwnd may be fractional, §4.4).
        if (st.cwnd >= 1.0) {
            if (st.inflight >=
                static_cast<std::uint32_t>(std::floor(st.cwnd)))
                return;
        } else {
            if (st.inflight >= 1)
                return;
            if (eq_.now() < st.next_send_allowed) {
                // Paced below one request per RTT: re-poll at the gate,
                // once however many calls find it closed.
                if (st.repoll_at != st.next_send_allowed) {
                    st.repoll_at = st.next_send_allowed;
                    eq_.schedule(st.repoll_at, [this, mn] { trySend(mn); });
                }
                return;
            }
        }
        const std::uint32_t slot = out_index_.find(wait.front());
        if (slot == out_index_.kNone) {
            wait.pop_front(); // cancelled/stale
            continue;
        }
        Outstanding &out = out_slots_[slot];
        // Incast window: bound expected response bytes (always admit
        // at least one request so big reads are not starved).
        if (iwnd_used_ > 0 &&
            iwnd_used_ + out.expected_resp_bytes > cfg_.clib.iwnd_bytes)
            return;
        wait.pop_front();
        st.inflight++;
        iwnd_used_ += out.expected_resp_bytes;
        transmit(slot);
    }
}

void
CNode::transmit(std::uint32_t slot)
{
    // Stamp the attempt with the CN's current membership epoch: a
    // retry after an epoch refresh carries the new epoch, so one fence
    // round-trip is enough to recover (§ self-healing control plane).
    Outstanding &out = out_slots_[slot];
    out.req->epoch = epoch_;
    const RequestMsg &req = *out.req;
    out.sent_at = eq_.now();
    out.resp_parts.reset();
    out.resp_corrupted = false;

    const std::uint64_t payload = requestPayloadBytes(req);

    // CLib software send + CN NIC traversal, then onto the wire.
    const Tick on_wire =
        eq_.now() + cfg_.clib.send_overhead + cfg_.clib.nic_latency;
    sendSplit(eq_, net_, on_wire, node_, req.dst, req.req_id, req.type,
              payload, out.req);
    out.timer = eq_.scheduleAfter(timeoutFor(req),
                                  [this, slot] { handleTimeout(slot); });
}

Tick
CNode::timeoutFor(const RequestMsg &req) const
{
    switch (req.type) {
      case MsgType::kAlloc:
      case MsgType::kFree:
      case MsgType::kOffload:
      case MsgType::kFence:
        return cfg_.clib.slow_op_timeout;
      default: {
        // Large transfers legitimately occupy the wire for a long
        // time; scale the timeout with the serialized payload so a
        // 64 KB write at 10 Gbps does not spuriously retry.
        const std::uint64_t payload =
            req.type == MsgType::kWrite ? req.size
            : req.type == MsgType::kRead ? req.size
                                         : 0;
        const Tick wire = static_cast<Tick>(payload) *
                          ticksPerByte(cfg_.net.link_bandwidth_bps);
        return cfg_.clib.timeout + 3 * wire;
      }
    }
}

void
CNode::endAttempt(std::uint32_t slot)
{
    Outstanding &out = out_slots_[slot];
    eq_.cancel(out.timer);
    out.timer = kNoEvent;
    out_index_.erase(out.req->req_id);
}

void
CNode::handleTimeout(std::uint32_t slot)
{
    // The timeout is cancelled whenever its attempt ends, so the slot
    // still holds the attempt it was armed for.
    stats_.timeouts++;
    out_slots_[slot].last_fail_timeout = true;
    out_slots_[slot].last_fail_fenced = false;
    endAttempt(slot);
    retry(slot, true);
}

void
CNode::retry(std::uint32_t slot, bool congestion_signal)
{
    // The caller already ended the attempt (endAttempt); the body
    // stays in place and is either re-linked under a fresh attempt id
    // or recycled after the failure callback is scheduled.
    Outstanding &out = out_slots_[slot];
    const NodeId mn = out.req->dst;
    if (congestion_signal) {
        PerMn &st = mn_state_[mnIndex(mn)];
        decreaseCwnd(st, std::max<Tick>(st.last_rtt, cfg_.clib.timeout));
    }
    if (out.retries >= cfg_.clib.max_retries) {
        // Give up: surface the failure to the application (§4.5 T4,
        // "extremely rare"). A timeout-caused exhaustion (dead or
        // unreachable MN) reports kTimeout so callers can distinguish
        // it from NACK/corruption storms (kRetryExceeded).
        const Status status =
            out.last_fail_fenced ? Status::kEpochFenced
            : out.last_fail_timeout ? Status::kTimeout
                                    : Status::kRetryExceeded;
        warnMsg(detail::strfmt(
            "CN %u: request %llu to MN %u failed with %s after %u "
            "retries",
            node_, (unsigned long long)out.req->orig_req_id,
            out.req->dst, to_string(status), out.retries));
        PerMn &st = mn_state_[mnIndex(mn)];
        clio_assert(st.inflight > 0, "inflight underflow");
        st.inflight--;
        iwnd_used_ -= out.expected_resp_bytes;
        failLater(std::move(out.cb), status);
        freeSlot(slot);
        pumpWaiting();
        return;
    }
    stats_.retries++;
    // A retry is a NEW request with a fresh id (its own response), but
    // carries the original id so the MN can deduplicate (T4). Copy the
    // message: packets of the previous attempt still reference it.
    auto fresh = std::make_shared<RequestMsg>(*out.req);
    fresh->req_id = newReqId();
    out.req = std::move(fresh);
    out.retries++;
    const bool inserted = out_index_.insert(out.req->req_id, slot);
    clio_assert(inserted, "request id collision");
    // Exponential backoff before a timeout-triggered retransmission:
    // if the MN crashed, hammering it every TIMEOUT only burns wire;
    // if it is merely congested, spacing retries helps it drain.
    // NACK/corruption retries (congestion_signal == false) resend
    // immediately — the MN is alive, only the packet was bad.
    Tick backoff = 0;
    if (congestion_signal && cfg_.clib.retry_backoff > 0) {
        const std::uint32_t k =
            std::min<std::uint32_t>(out.retries - 1, 16);
        backoff = std::min<Tick>(cfg_.clib.retry_backoff << k,
                                 cfg_.clib.slow_op_timeout);
    }
    if (backoff == 0)
        transmit(slot);
    else
        out.timer = eq_.scheduleAfter(backoff,
                                      [this, slot] { transmit(slot); });
}

void
CNode::decreaseCwnd(PerMn &st, Tick guard)
{
    if (eq_.now() < st.last_decrease + guard)
        return;
    st.cwnd = std::max(st.cwnd * cfg_.clib.cwnd_mult_dec, 0.01);
    st.last_decrease = eq_.now();
    stats_.cwnd_decreases++;
    if (st.cwnd < 1.0 && st.last_rtt > 0) {
        st.next_send_allowed =
            eq_.now() + static_cast<Tick>(
                            static_cast<double>(st.last_rtt) / st.cwnd);
    }
}

void
CNode::failLater(Completion cb, Status status)
{
    stats_.failures++;
    eq_.schedule(eq_.now() + cfg_.clib.recv_overhead,
                 [cb = std::move(cb), status] {
                     ResponseMsg fail;
                     fail.status = status;
                     cb(fail);
                 });
}

void
CNode::updateCwnd(NodeId mn, Tick rtt)
{
    PerMn &st = mn_state_[mnIndex(mn)];
    st.last_rtt = rtt;
    if (rtt > cfg_.clib.target_rtt) {
        // At most one multiplicative decrease per RTT: every ack of
        // the same congested window carries a high RTT sample, and
        // reacting to each would collapse cwnd to the floor.
        decreaseCwnd(st, rtt);
    } else {
        st.cwnd = std::min(st.cwnd + cfg_.clib.cwnd_add_step,
                           cfg_.clib.cwnd_max);
    }
}

void
CNode::onPacket(Packet pkt)
{
    if (!alive_)
        return; // dead NIC: deliveries in flight are lost
    const std::uint32_t slot = out_index_.find(pkt.req_id);
    if (slot == out_index_.kNone)
        return; // stale response (e.g. the original after a retry won)
    Outstanding &out = out_slots_[slot];

    if (pkt.type == MsgType::kNack) {
        // MN's link layer saw a corrupted packet of our request (§4.4).
        stats_.nacks++;
        out.last_fail_timeout = false;
        out.last_fail_fenced = false;
        endAttempt(slot);
        retry(slot, false);
        return;
    }

    clio_assert(pkt.type == MsgType::kResponse,
                "unexpected packet type at CN");
    switch (out.resp_parts.add(pkt.part, pkt.total_parts)) {
      case PartTracker::Verdict::kNew:
        break;
      case PartTracker::Verdict::kDuplicate:
        return; // switch-duplicated (chaos hook): already counted
      case PartTracker::Verdict::kMalformed:
        stats_.malformed_parts_dropped++;
        return;
    }
    if (pkt.corrupted)
        out.resp_corrupted = true;
    if (!out.resp_parts.complete())
        return;

    // Full response assembled (T1 reassembly).
    const NodeId mn = out.req->dst;
    const Tick rtt = eq_.now() - out.sent_at;
    rtt_hist_.record(rtt);
    // Congestion signal (§4.4): only data-path requests sample the
    // network delay — slow-path and offload RTTs are dominated by
    // service time, not queueing. Large transfers subtract their own
    // expected serialization so only *excess* delay counts.
    switch (out.req->type) {
      case MsgType::kRead:
      case MsgType::kWrite:
      case MsgType::kAtomic: {
        const std::uint64_t payload =
            out.req->type == MsgType::kAtomic ? 8 : out.req->size;
        const Tick expected_ser =
            2 * payload * ticksPerByte(cfg_.net.link_bandwidth_bps);
        updateCwnd(mn, rtt > expected_ser ? rtt - expected_ser : 0);
        break;
      }
      default:
        break;
    }

    if (out.resp_corrupted) {
        // Checksum failure on the response: retry the whole request.
        out.last_fail_timeout = false;
        out.last_fail_fenced = false;
        endAttempt(slot);
        retry(slot, false);
        return;
    }

    // Every part carries the whole message.
    auto resp =
        std::static_pointer_cast<const ResponseMsg>(std::move(pkt.msg));
    if (resp->status == Status::kEpochFenced) {
        // The MN rejoined at a newer epoch than this attempt carried.
        // Refresh our membership view from the controller (modeled as
        // an instantaneous control-plane RPC) and retry — the fresh
        // attempt is stamped with the new epoch by transmit(). Only
        // when retries run out does kEpochFenced surface to the app.
        if (epoch_refresh_) {
            const std::uint64_t e = epoch_refresh_();
            if (e > epoch_) {
                epoch_ = e;
                stats_.epoch_refreshes++;
            }
        }
        out.last_fail_timeout = false;
        out.last_fail_fenced = true;
        endAttempt(slot);
        retry(slot, false);
        return;
    }

    PerMn &st = mn_state_[mnIndex(mn)];
    clio_assert(st.inflight > 0, "inflight underflow");
    st.inflight--;
    iwnd_used_ -= out.expected_resp_bytes;
    stats_.responses++;

    auto cb = std::move(out.cb);
    endAttempt(slot);
    freeSlot(slot);

    // CN NIC + CLib software receive overhead before the app sees it.
    const Tick deliver =
        eq_.now() + cfg_.clib.nic_latency + cfg_.clib.recv_overhead;
    eq_.schedule(deliver,
                 [cb = std::move(cb), resp] { cb(*resp); });
    pumpWaiting();
}

void
CNode::crash()
{
    if (!alive_)
        return;
    alive_ = false;
    stats_.crashes++;
    // Fail every outstanding request: the issuing processes died with
    // the node, but completions must still fire so callers pumping the
    // event queue unwind instead of hanging. Walk slots in index order,
    // so completions are scheduled deterministically.
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(out_slots_.size()); slot++) {
        Outstanding &out = out_slots_[slot];
        if (!out.cb)
            continue; // free, or already completed
        eq_.cancel(out.timer); // its timeout or backoff retransmit
        failLater(std::move(out.cb), Status::kTimeout);
        freeSlot(slot);
    }
    out_index_.clear();
    for (auto &wait : mn_wait_)
        wait.clear();
    for (auto &st : mn_state_) {
        st.inflight = 0;
        st.next_send_allowed = 0;
    }
    iwnd_used_ = 0;
}

void
CNode::restart()
{
    if (alive_)
        return;
    alive_ = true;
    incarnation_++;
    heartbeat_.resetSequence();
    // Congestion state restarts from scratch, like a rebooted kernel.
    for (auto &st : mn_state_) {
        PerMn fresh;
        fresh.cwnd = cfg_.clib.cwnd_init;
        st = fresh;
    }
    // No membership view until the controller pushes one (or an MN
    // fence forces a refresh).
    epoch_ = 0;
}

} // namespace clio
