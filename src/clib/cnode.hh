/**
 * @file
 * Compute node + CLib transport layer (§4.4).
 *
 * A CNode models one regular server with a commodity Ethernet NIC.
 * All transport state lives here, on the CN side, making MNs
 * "transportless":
 *  - connection-less request/response matching by request id;
 *  - request-level reliability: the whole memory request is retried
 *    (with a FRESH id, carrying the original id for MN-side dedup) on
 *    NACK, corrupted response, or timeout (§4.5 T4). An attempt's
 *    timeout is cancelled the moment the attempt ends, so a finished
 *    request leaves no event behind in the queue;
 *  - delay-based AIMD congestion window per MN, which may fall below
 *    one outstanding request under heavy congestion (Swift-style,
 *    §4.4), plus an incast window bounding expected response bytes;
 *  - MTU split on send and response reassembly on receive (T1).
 *
 * Layout note: one CNode is shared by every simulated process on its
 * server, so at 10^4+ processes per CN the per-request state here is
 * kept in pooled slots (bodies are recycled, never freed per-op),
 * found by attempt id through a flat open-addressed index (no node
 * allocation per request), and the per-MN congestion records are a
 * trivially-copyable struct-of-arrays scanned linearly on the
 * send/ack paths.
 */

#ifndef CLIO_CLIB_CNODE_HH
#define CLIO_CLIB_CNODE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/network.hh"
#include "proto/messages.hh"
#include "proto/wire.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_index.hh"
#include "sim/stats.hh"

namespace clio {

struct RequestHandle;

/** Transport-level statistics for one CNode. */
struct CNodeStats
{
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t retries = 0;
    std::uint64_t nacks = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0; ///< kRetryExceeded surfaced to apps
    std::uint64_t cwnd_decreases = 0;
    std::uint64_t epoch_refreshes = 0; ///< kEpochFenced-triggered refreshes
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t crashes = 0;
    /** Response packets whose part index or part count is malformed. */
    std::uint64_t malformed_parts_dropped = 0;
};

/** One compute node: NIC + CLib transport shared by its processes. */
class CNode
{
  public:
    /** Completion callback, handed the full assembled response (status,
     * payload, scalar value, offload error code, per-stage replies).
     * CLib-side failures (timeout, retry exhaustion, dead node) deliver
     * a synthesized response carrying only the failure status. */
    using Completion = std::function<void(const ResponseMsg &)>;

    CNode(EventQueue &eq, Network &network, const ModelConfig &cfg,
          RackId rack = 0);

    NodeId nodeId() const { return node_; }
    EventQueue &eventQueue() { return eq_; }
    const ModelConfig &config() const { return cfg_; }

    /**
     * Issue one request. The transport owns ordering *below* the
     * request level only; inter-request ordering is the client
     * layer's job (T2). `req->dst` selects the MN. A preset
     * `req->orig_req_id` is kept: the MN dedups on it (T4).
     *
     * @param expected_resp_bytes response payload size for the incast
     *        window (reads: size; others: ~0).
     */
    void issue(std::shared_ptr<RequestMsg> req,
               std::uint64_t expected_resp_bytes, Completion cb);
    /** A request id no other request in the cluster carries. */
    ReqId newReqId() { return (ReqId{node_} << 40) | next_req_seq_++; }

    const CNodeStats &stats() const { return stats_; }
    LatencyHistogram &rttHistogram() { return rtt_hist_; }

    /** @{ Membership epoch (health plane). Every attempt is stamped
     * with the CN's current epoch; an MN that rejoined after this
     * epoch fences the request with kEpochFenced. The refresh hook
     * models the CN re-fetching the current epoch from the controller
     * when fenced (a control-plane RPC, modeled as instantaneous). */
    void setEpoch(std::uint64_t epoch) { epoch_ = epoch; }
    std::uint64_t epoch() const { return epoch_; }
    void setEpochRefresh(std::function<std::uint64_t()> hook)
    {
        epoch_refresh_ = std::move(hook);
    }
    /** @} */

    /** @{ CN process-level failure (health plane / chaos). crash()
     * fails every outstanding request with kTimeout (their issuing
     * processes died; completions fire so pumping callers unwind) and
     * stops heartbeats; restart() resumes with fresh transport state.
     * declaredDead(): the controller let the CN's lease run out. */
    bool alive() const { return alive_; }
    void crash();
    void restart();
    bool declaredDead() const { return declared_dead_; }
    void setDeclaredDead(bool dead) { declared_dead_ = dead; }
    /** @} */

    /** Start emitting liveness beacons to `controller` every `period`
     * ticks, first one at `phase` (staggered per node so beacons never
     * synchronize). Beacons are real packets through the fabric. */
    void
    startHeartbeats(NodeId controller, Tick period, Tick phase)
    {
        heartbeat_.start(node_, controller, period, phase);
    }

    /** Monotonic restart count, carried in heartbeats so the
     * controller can spot a crash+restart that fit inside one lease. */
    std::uint64_t incarnation() const { return incarnation_; }

    /** Current congestion window toward an MN (test/bench hook). */
    double cwnd(NodeId mn) const;

    /** @{ Recycling rings shared by every ClioClient on this CN (a
     * request message / handle lives ~one RTT, so a per-node ring
     * recycles across all processes instead of each of 10^4+ clients
     * carrying its own ~1 KB pool). */
    MessagePool<RequestMsg> &requestPool() { return req_pool_; }
    MessagePool<RequestHandle> &handlePool() { return handle_pool_; }
    /** @} */

  private:
    struct Outstanding
    {
        std::shared_ptr<RequestMsg> req;
        Completion cb;
        std::uint64_t expected_resp_bytes = 0;
        Tick sent_at = 0;
        std::uint32_t retries = 0;
        /** The slot's one pending event: the current attempt's timeout,
         * or the retransmit a backoff retry waits for. Every path that
         * ends the attempt cancels it. */
        EventId timer = kNoEvent;
        /** Whether the most recent failed attempt died by timeout (vs
         * NACK/corruption) — decides kTimeout vs kRetryExceeded when
         * retries are exhausted. */
        bool last_fail_timeout = false;
        /** Whether the most recent failed attempt was epoch-fenced by
         * the MN; surfaced as kEpochFenced on exhaustion. */
        bool last_fail_fenced = false;
        /** Response reassembly of the current attempt (T1). */
        PartTracker resp_parts;
        bool resp_corrupted = false;
    };

    /** Per-destination-MN congestion state: the scalar record scanned
     * and updated on every send/ack. Trivially copyable by design —
     * the (cold) per-MN wait queues live in a parallel array. */
    struct PerMn
    {
        double cwnd = 0.0;
        std::uint32_t inflight = 0;
        /** Pacing gate used when cwnd < 1. */
        Tick next_send_allowed = 0;
        Tick last_rtt = 0;
        /** Once-per-RTT limiter for multiplicative decrease. */
        Tick last_decrease = 0;
    };
    static_assert(std::is_trivially_copyable_v<PerMn>);

    void onPacket(Packet pkt);
    /** Re-pump every per-MN wait queue (shared-iwnd wakeup). */
    void pumpWaiting();
    void trySend(NodeId mn);
    /** Retry timeout for one request (type-dependent, §4.5). */
    Tick timeoutFor(const RequestMsg &req) const;
    /** Send the slot's current attempt and arm its timeout. */
    void transmit(std::uint32_t slot);
    /** The current attempt is over (answered, NACKed, corrupt, fenced
     * or timed out): cancel its pending event and unlink its id. */
    void endAttempt(std::uint32_t slot);
    void handleTimeout(std::uint32_t slot);
    void retry(std::uint32_t slot, bool congestion_signal);
    void updateCwnd(NodeId mn, Tick rtt);
    /** Multiplicative decrease, at most once per `guard` ticks; below
     * one request per RTT it also arms the pacing gate. */
    void decreaseCwnd(PerMn &st, Tick guard);
    /** Fail a request back to its caller after the CLib receive
     * overhead (counted in CNodeStats::failures). */
    void failLater(Completion cb, Status status);
    /** Index of `mn`'s congestion record (appended on first use). A
     * handful of MNs exist per cluster, so a linear id scan beats
     * hashing. */
    std::size_t mnIndex(NodeId mn);

    /** @{ Pooled outstanding-request slots: bodies are recycled
     * through a free list (their vectors keep capacity across ops),
     * and the flat id index holds a 4-byte slot index per request. */
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);
    /** @} */

    EventQueue &eq_;
    Network &net_;
    ModelConfig cfg_;
    NodeId node_;

    /** Outstanding requests: CURRENT attempt id -> slot. */
    FlatIndex<ReqId> out_index_;
    std::vector<Outstanding> out_slots_;
    std::vector<std::uint32_t> out_free_;

    /** @{ Per-MN congestion state, struct-of-arrays (parallel). */
    std::vector<NodeId> mn_ids_;
    std::vector<PerMn> mn_state_;
    /** Requests admitted by the client layer but waiting for window
     * room, FIFO per MN. */
    std::vector<std::deque<ReqId>> mn_wait_;
    /** @} */

    std::uint64_t next_req_seq_ = 1;
    std::uint64_t iwnd_used_ = 0;

    /** @{ Health-plane state. */
    bool alive_ = true;
    bool declared_dead_ = false;
    std::uint64_t epoch_ = 0;
    std::function<std::uint64_t()> epoch_refresh_;
    std::uint64_t incarnation_ = 0;
    HeartbeatSource heartbeat_;
    /** @} */

    MessagePool<RequestMsg> req_pool_;
    MessagePool<RequestHandle> handle_pool_;

    CNodeStats stats_;
    LatencyHistogram rtt_hist_;
};

} // namespace clio

#endif // CLIO_CLIB_CNODE_HH
