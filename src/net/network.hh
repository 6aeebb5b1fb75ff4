/**
 * @file
 * Datacenter network model: a two-tier leaf/spine fabric.
 *
 * Every node (CN NIC or CBoard port) belongs to one rack and connects
 * to that rack's ToR (leaf) switch by a full-duplex link. Racks are
 * joined by aggregation links to a spine: a cross-rack packet
 * traverses source ToR -> uplink -> spine -> downlink -> destination
 * ToR, paying serialization and bounded queueing at each hop. With
 * every node in rack 0 (the default) no aggregation hop exists and
 * the model degenerates to the paper's single-ToR topology (§3.2:
 * CNs and CBoards all connect to one ToR).
 *
 * The model captures the effects the paper's transport design reacts
 * to: per-link serialization (bandwidth), propagation and switching
 * delay, output-queue contention at every switch stage (incast!),
 * random loss/corruption/reordering for fault injection, and optional
 * lossless (PFC-like) back-pressure instead of tail drop.
 *
 * Queue accounting: a packet occupies a switch output queue from its
 * admission until `out_done` — the instant its last byte leaves the
 * output port — NOT until delivery (which additionally includes the
 * final link propagation plus jitter/reorder delay). Occupancy is
 * kept as a per-stage ring of departure times drained lazily, which
 * is equivalent to scheduling one drain event per packet at its
 * `out_done` without the event overhead.
 *
 * Lossless (PFC-like) mode is bounded-queue back-pressure: when an
 * output queue along the path is full at submission time, the packet
 * is held at the source NIC (its `tx_start` is delayed) until the
 * queue has room; stalls are counted in NetStats. Queues never grow
 * unbounded in either mode.
 *
 * Control-plane lane: packets flagged Packet::priority (liveness
 * heartbeats) model an 802.1p-style strict-priority class — they
 * neither wait for nor occupy NIC/switch data queues, so a bulk
 * transfer serializing on a node's link cannot delay its beacons past
 * a failure-detector lease. They still pay serialization, propagation
 * and switching latency, and remain subject to loss, corruption,
 * jitter, reordering, and the chaos fault hook.
 */

#ifndef CLIO_NET_NETWORK_HH
#define CLIO_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace clio {

/** Aggregate network statistics (per Network instance). */
struct NetStats
{
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_random = 0;
    std::uint64_t dropped_queue = 0;     ///< ToR output tail drops
    std::uint64_t dropped_agg_queue = 0; ///< uplink/downlink tail drops
    /** Dropped because an endpoint node or rack ToR was marked down
     * (at submission, or at delivery for packets already in flight). */
    std::uint64_t dropped_down = 0;
    /** Dropped by the installed fault hook. */
    std::uint64_t dropped_fault = 0;
    /** Extra deliveries scheduled by the fault hook. */
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t reordered = 0;
    std::uint64_t bytes_delivered = 0;
    /** Packets that crossed the spine (src and dst in different racks). */
    std::uint64_t cross_rack = 0;
    /** Lossless mode: sends whose tx_start was delayed because an
     * output queue along the path was full (PFC-like back-pressure). */
    std::uint64_t pfc_stalls = 0;
    /** Total ticks of back-pressure delay added to tx_start. */
    std::uint64_t pfc_stall_ticks = 0;
    /** Peak ToR output-queue occupancy observed at any packet's
     * arrival at the queue; never exceeds switch_queue_packets in
     * either mode (lossless admission delay / lossy tail drop). */
    std::uint32_t peak_queue_depth = 0;
    /** Packets that took the strict-priority control lane (heartbeats;
     * Packet::priority) and bypassed NIC/switch data queues. */
    std::uint64_t priority_bypass = 0;
};

/** What the fault hook decided for one packet at one hop. */
struct FaultVerdict
{
    bool drop = false;
    bool corrupt = false;
    /** Deliver a second copy of the packet (after reorder_delay). */
    bool duplicate = false;
};

/** The leaf/spine-switched network connecting every node of a cluster. */
class Network
{
  public:
    using RxHandler = std::function<void(Packet)>;

    /**
     * Deterministic fault-injection hook, consulted once per hop a
     * packet traverses, in path order: the rack uplink and the spine
     * downlink (cross-rack packets only), then the destination ToR
     * port. When no hook is installed the send path performs exactly
     * the same RNG draws as before, so installing chaos never perturbs
     * fault-free seeds.
     */
    using FaultHook = std::function<FaultVerdict(const Packet &)>;

    Network(EventQueue &eq, const NetConfig &cfg, std::uint64_t seed);

    /**
     * Attach a node; returns its NodeId. Its host link runs at
     * NetConfig::link_bandwidth_bps, like every host link.
     * @param rx   ingress handler invoked at delivery time.
     * @param rack rack (leaf switch) the node's link terminates at.
     */
    NodeId addNode(RxHandler rx, RackId rack = 0);

    /**
     * Transmit a packet from pkt.src to pkt.dst. Serialization starts
     * when the source link is free (and, in lossless mode, when every
     * output queue along the path has room); delivery happens via the
     * event queue after switch traversal (or never, if dropped).
     */
    void send(Packet pkt);

    /**
     * Estimated backlog, in ticks, of the ToR output port that feeds
     * `node`'s ingress link — i.e. how far ahead of now that port's
     * egress is booked (diagnostic / congestion-observability hook).
     * This measures contention at the switch output, not load on the
     * node's own egress link.
     */
    Tick switchEgressBacklog(NodeId node) const;

    /** Rack of a node. */
    RackId rackOf(NodeId node) const;

    /** @{ Failure domains. A down node (dead NIC/board port) or a down
     * rack (dead ToR) drops every packet to or from it — both packets
     * submitted later and packets already in flight at delivery time.
     * Marking a rack no node was added to is a no-op. */
    void setNodeDown(NodeId node, bool down);
    void setRackDown(RackId rack, bool down);
    /** @} */

    /** Install the fault-injection hook (nullptr clears it). */
    void setFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

    const NetStats &stats() const { return stats_; }
    void resetStats() { stats_ = NetStats{}; }

    const NetConfig &config() const { return cfg_; }

  private:
    /**
     * One switch output stage (a ToR output port, a rack uplink, or a
     * rack downlink): when its egress is next idle, plus the departure
     * times of every packet committed to it and not yet departed.
     * `size()` IS the committed occupancy; entries <= now are popped
     * lazily (equivalent to a drain event at each out_done).
     */
    class Stage
    {
      public:
        /** When the stage's egress link becomes idle. */
        Tick free = 0;

        /** Committed packets not yet departed. */
        std::uint32_t size() const { return size_; }
        /** Departure time of the i-th oldest committed packet. */
        Tick at(std::uint32_t i) const { return ring_[(head_ + i) & mask()]; }
        /** Commit a packet departing at `done` (>= every earlier one). */
        void push(Tick done);
        /** Free the slots of packets that departed by `now`. */
        void popDeparted(Tick now);
        /** Committed packets still queued at `t`: those departing
         * after it (binary search; departures are sorted). */
        std::uint32_t queuedAfter(Tick t) const;

      private:
        std::uint32_t mask() const {
            return static_cast<std::uint32_t>(ring_.size()) - 1;
        }

        /** Departure (out_done) times, FIFO in a power-of-two ring.
         * Non-decreasing because egress serialization is FIFO. */
        std::vector<Tick> ring_;
        std::uint32_t head_ = 0;
        std::uint32_t size_ = 0;
    };

    /** The constants of one kind of hop, built once from the config.
     * The switch's forwarding latency is pipelined: it delays the
     * packet but does not occupy the output link. */
    struct Link
    {
        std::uint32_t queue_cap; ///< output queue capacity, packets
        Tick ticks_per_byte;     ///< output link serialization cost
        Tick forward_latency;    ///< switch feeding the output link
        Tick propagation;        ///< to the next switch or the NIC
        std::uint64_t NetStats::*tail_drops; ///< this queue's drop count
    };

    struct Port
    {
        RxHandler rx;
        /** When the node's egress link becomes idle. */
        Tick tx_free = 0;
        RackId rack = 0;
        /** Marked down by the failure layer (dead NIC / board port). */
        bool down = false;
        /** The ToR output port toward this node. */
        Stage out;
    };

    /** Leaf<->spine plumbing of one rack. */
    struct Rack
    {
        Stage up;   ///< leaf -> spine aggregation link
        Stage down; ///< spine -> leaf aggregation link
        /** Marked down by the failure layer (dead ToR). */
        bool tor_down = false;
    };

    /** Schedule one delivery of `pkt` at `deliver` (down-state is
     * re-checked when the event fires, so packets in flight when a
     * node or rack dies are lost, like on real hardware). */
    void scheduleDelivery(Tick deliver, Packet pkt);

    EventQueue &eq_;
    NetConfig cfg_;
    Rng rng_;
    /** @{ Hop kinds: destination ToR port (whose rate is every host
     * link's), source rack uplink, spine downlink. */
    Link tor_port_;
    Link rack_uplink_;
    Link spine_downlink_;
    /** @} */
    std::vector<Port> ports_;
    std::vector<Rack> racks_;
    FaultHook fault_hook_;
    NetStats stats_;
};

} // namespace clio

#endif // CLIO_NET_NETWORK_HH
