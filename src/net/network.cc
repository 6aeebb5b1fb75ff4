#include "net/network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

Network::Network(EventQueue &eq, const NetConfig &cfg, std::uint64_t seed)
    : eq_(eq), cfg_(cfg), rng_(seed),
      tor_port_{cfg.switch_queue_packets,
                ticksPerByte(cfg.link_bandwidth_bps), cfg.switch_latency,
                cfg.link_propagation, &NetStats::dropped_queue},
      rack_uplink_{cfg.agg_queue_packets,
                   ticksPerByte(cfg.agg_bandwidth_bps), cfg.switch_latency,
                   cfg.agg_link_propagation, &NetStats::dropped_agg_queue},
      spine_downlink_{cfg.agg_queue_packets,
                      ticksPerByte(cfg.agg_bandwidth_bps),
                      cfg.spine_latency, cfg.agg_link_propagation,
                      &NetStats::dropped_agg_queue}
{
}

NodeId
Network::addNode(RxHandler rx, RackId rack)
{
    clio_assert(rack < 4096, "implausible rack id %u", rack);
    const NodeId id = static_cast<NodeId>(ports_.size());
    Port port;
    port.rx = std::move(rx);
    port.rack = rack;
    ports_.push_back(std::move(port));
    if (rack >= racks_.size())
        racks_.resize(rack + 1);
    return id;
}

void
Network::setNodeDown(NodeId node, bool down)
{
    clio_assert(node < ports_.size(), "unknown node");
    ports_[node].down = down;
}

void
Network::setRackDown(RackId rack, bool down)
{
    if (rack < racks_.size())
        racks_[rack].tor_down = down;
}

void
Network::Stage::push(Tick done)
{
    if (size_ == ring_.size()) {
        // Full: unroll into a ring twice the size, oldest first.
        std::vector<Tick> grown(std::max<std::size_t>(16, 2 * ring_.size()));
        for (std::uint32_t i = 0; i < size_; i++)
            grown[i] = at(i);
        ring_.swap(grown);
        head_ = 0;
    }
    ring_[(head_ + size_) & mask()] = done;
    size_++;
}

void
Network::Stage::popDeparted(Tick now)
{
    while (size_ > 0 && ring_[head_] <= now) {
        head_ = (head_ + 1) & mask();
        size_--;
    }
}

std::uint32_t
Network::Stage::queuedAfter(Tick t) const
{
    // First departure after `t`; everything from it on is still queued.
    std::uint32_t lo = 0, hi = size_;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (at(mid) <= t)
            lo = mid + 1;
        else
            hi = mid;
    }
    return size_ - lo;
}

void
Network::scheduleDelivery(Tick deliver, Packet pkt)
{
    const NodeId dst_id = pkt.dst;
    eq_.schedule(deliver, [this, dst_id, pkt = std::move(pkt)]() mutable {
        Port &port = ports_[dst_id];
        if (port.down || racks_[port.rack].tor_down) {
            // The endpoint (or its ToR) died while the packet was in
            // flight: the bytes are gone.
            stats_.dropped_down++;
            return;
        }
        stats_.delivered++;
        stats_.bytes_delivered += pkt.wire_bytes;
        if (port.rx)
            port.rx(std::move(pkt));
    });
}

void
Network::send(Packet pkt)
{
    clio_assert(pkt.src < ports_.size() && pkt.dst < ports_.size(),
                "send between unknown nodes %u -> %u", pkt.src, pkt.dst);
    clio_assert(pkt.src != pkt.dst, "loopback packets not modeled");
    stats_.sent++;

    Port &src = ports_[pkt.src];
    Port &dst = ports_[pkt.dst];
    if (src.down || dst.down || racks_[src.rack].tor_down ||
        racks_[dst.rack].tor_down) {
        // Dead endpoint or dead ToR on either side: nothing leaves the
        // NIC (requests to crashed MNs surface as CN-side timeouts).
        stats_.dropped_down++;
        return;
    }
    const Tick now = eq_.now();

    // The packet's switch path: a cross-rack packet leaves its rack on
    // the uplink and enters the destination rack on the spine's
    // downlink; every packet ends at the destination ToR's port.
    struct Hop
    {
        Stage *stage;
        const Link *link;
    };
    Hop path[3];
    std::size_t hops = 0;
    const bool cross_rack = src.rack != dst.rack;
    if (cross_rack) {
        path[hops++] = {&racks_[src.rack].up, &rack_uplink_};
        path[hops++] = {&racks_[dst.rack].down, &spine_downlink_};
    }
    path[hops++] = {&dst.out, &tor_port_};

    // Control-plane lane: priority packets never wait for, occupy, or
    // advance any data queue (strict-priority preemption; their own
    // serialization still elapses). Everything else — loss, corruption,
    // jitter, reordering, the fault hook — applies identically.
    const bool prio = pkt.priority;
    if (prio)
        stats_.priority_bypass++;

    // Departures that already happened free their queue slots. Lossless
    // (PFC-like) back-pressure: if any queue on the path is full, the
    // packet is held at the source NIC until a slot will have freed —
    // tx_start is delayed, queues stay bounded.
    Tick hold = now;
    for (std::size_t i = 0; i < hops; i++) {
        Stage &stage = *path[i].stage;
        stage.popDeparted(now);
        // With `depth` packets committed and room for `cap`, this one
        // may occupy the queue once the one at index depth - cap
        // (oldest first) has departed.
        const std::uint32_t cap = path[i].link->queue_cap;
        if (cfg_.lossless && !prio && stage.size() >= cap)
            hold = std::max(hold, stage.at(stage.size() - cap));
    }
    if (hold > now) {
        stats_.pfc_stalls++;
        stats_.pfc_stall_ticks += hold - now;
    }

    // --- Source NIC egress: serialize onto the host link. ---
    const Tick ser =
        static_cast<Tick>(pkt.wire_bytes) * tor_port_.ticks_per_byte;
    const Tick tx_start = prio ? now : std::max(hold, src.tx_free);
    const Tick tx_done = tx_start + ser;
    if (!prio)
        src.tx_free = tx_done;

    // --- In-flight faults. ---
    if (rng_.chance(cfg_.loss_rate)) {
        stats_.dropped_random++;
        return;
    }
    if (rng_.chance(cfg_.corrupt_rate)) {
        pkt.corrupted = true;
        stats_.corrupted++;
    }
    if (cross_rack)
        stats_.cross_rack++;

    // --- Walk the path. Per hop: the fault hook (no RNG draws without
    // one), tail drop (lossy mode; lossless mode already held the
    // packet until the queue has room), serialization onto the hop's
    // output link, queue occupancy until the last byte leaves
    // (`done`, drained lazily), then propagation to the next hop.
    bool duplicate = false;
    Tick arrive = 0;                             // at this hop's queue
    Tick next = tx_done + cfg_.link_propagation; // at the next hop
    for (std::size_t i = 0; i < hops; i++) {
        Stage &stage = *path[i].stage;
        const Link &link = *path[i].link;
        arrive = next;
        if (fault_hook_) {
            const FaultVerdict v = fault_hook_(pkt);
            if (v.drop) {
                stats_.dropped_fault++;
                return;
            }
            if (v.corrupt && !pkt.corrupted) {
                pkt.corrupted = true;
                stats_.corrupted++;
            }
            if (v.duplicate)
                duplicate = true;
        }
        if (!cfg_.lossless && !prio && stage.size() >= link.queue_cap) {
            (stats_.*link.tail_drops)++;
            return;
        }
        const Tick link_ser =
            static_cast<Tick>(pkt.wire_bytes) * link.ticks_per_byte;
        const Tick start = prio ? arrive : std::max(arrive, stage.free);
        const Tick done = start + link_ser + link.forward_latency;
        if (!prio) {
            stage.free = start + link_ser;
            stage.push(done);
        }
        next = done + link.propagation;
    }

    if (!prio) {
        // Physical ToR queue occupancy when this packet's bytes reached
        // it (`arrive` of the last hop): committed packets still
        // present then. Bounded by the queue capacity in BOTH modes —
        // in lossless mode because the admission delay above
        // guarantees enough predecessors have departed by the time the
        // packet arrives.
        stats_.peak_queue_depth = std::max(stats_.peak_queue_depth,
                                           dst.out.queuedAfter(arrive));
    }

    // --- Arrival at the destination NIC. ---
    Tick deliver = next;
    if (cfg_.switch_jitter_mean > 0) {
        deliver += static_cast<Tick>(rng_.exponential(
            static_cast<double>(cfg_.switch_jitter_mean)));
    }
    if (rng_.chance(cfg_.reorder_rate)) {
        deliver += cfg_.reorder_delay;
        stats_.reordered++;
    }

    if (duplicate) {
        // A switch duplicated the packet: the copy trails the original
        // by the reorder delay (the protocol must absorb it, T1/T4).
        stats_.duplicated++;
        scheduleDelivery(deliver + cfg_.reorder_delay, pkt);
    }
    scheduleDelivery(deliver, std::move(pkt));
}

Tick
Network::switchEgressBacklog(NodeId node) const
{
    clio_assert(node < ports_.size(), "unknown node");
    const Port &port = ports_[node];
    return port.out.free > eq_.now() ? port.out.free - eq_.now() : 0;
}

RackId
Network::rackOf(NodeId node) const
{
    clio_assert(node < ports_.size(), "unknown node");
    return ports_[node].rack;
}

} // namespace clio
