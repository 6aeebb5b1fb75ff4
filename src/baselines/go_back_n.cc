#include "baselines/go_back_n.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

GbnEndpoint::GbnEndpoint(EventQueue &eq, Network &net, DeliverFn deliver,
                         std::uint32_t window, Tick rto,
                         std::uint32_t mtu)
    : eq_(eq), net_(net), deliver_(std::move(deliver)), window_(window),
      rto_(rto), mtu_payload_(mtu)
{
    clio_assert(window > 0 && mtu > 0, "bad GBN parameters");
    node_ = net_.addNode([this](Packet pkt) { onPacket(std::move(pkt)); });
}

void
GbnEndpoint::send(NodeId peer, std::vector<std::uint8_t> message)
{
    TxFlow &flow = tx_flows_[peer];
    // Segment the message; the first segment carries the total length
    // so the receiver can reassemble.
    std::size_t offset = 0;
    bool head = true;
    do {
        auto seg = std::make_shared<Segment>();
        seg->seq = 0; // assigned at admission
        seg->msg_head = head;
        seg->msg_len = static_cast<std::uint32_t>(message.size());
        const std::size_t n =
            std::min<std::size_t>(mtu_payload_, message.size() - offset);
        seg->payload.assign(message.begin() + static_cast<long>(offset),
                            message.begin() +
                                static_cast<long>(offset + n));
        flow.backlog.push_back(std::move(seg));
        offset += n;
        head = false;
    } while (offset < message.size());
    pump(peer, flow);
}

void
GbnEndpoint::pump(NodeId peer, TxFlow &flow)
{
    while (!flow.backlog.empty() &&
           flow.next_seq < flow.base + window_) {
        auto seg = flow.backlog.front();
        flow.backlog.pop_front();
        seg->seq = flow.next_seq++;
        flow.unacked.emplace(seg->seq, seg);
        transmitSegment(peer, seg);
    }
    if (!flow.unacked.empty())
        armTimer(peer, flow.timer_generation);
}

void
GbnEndpoint::transmitSegment(NodeId peer,
                             const std::shared_ptr<Segment> &seg)
{
    stats_.data_sent++;
    Packet pkt;
    pkt.src = node_;
    pkt.dst = peer;
    pkt.req_id = seg->seq; // reuse the id field for the sequence
    pkt.payload_len = static_cast<std::uint32_t>(seg->payload.size());
    pkt.wire_bytes = pkt.payload_len + kPacketHeaderBytes;
    pkt.msg = seg;
    net_.send(std::move(pkt));
}

void
GbnEndpoint::armTimer(NodeId peer, std::uint64_t generation)
{
    eq_.scheduleAfter(rto_, [this, peer, generation] {
        onTimeout(peer, generation);
    });
}

void
GbnEndpoint::onTimeout(NodeId peer, std::uint64_t generation)
{
    auto it = tx_flows_.find(peer);
    if (it == tx_flows_.end())
        return;
    TxFlow &flow = it->second;
    if (flow.timer_generation != generation || flow.unacked.empty())
        return; // stale timer or all acked
    // Go-Back-N: retransmit EVERY unacked segment.
    flow.timer_generation++;
    for (auto &[seq, seg] : flow.unacked) {
        stats_.data_retransmitted++;
        transmitSegment(peer, seg);
    }
    armTimer(peer, flow.timer_generation);
}

void
GbnEndpoint::sendAck(NodeId peer, std::uint64_t cumulative)
{
    stats_.acks_sent++;
    auto seg = std::make_shared<Segment>();
    seg->is_ack = true;
    seg->seq = cumulative;
    Packet pkt;
    pkt.src = node_;
    pkt.dst = peer;
    pkt.req_id = cumulative;
    pkt.payload_len = 0;
    pkt.wire_bytes = kPacketHeaderBytes;
    pkt.msg = seg;
    net_.send(std::move(pkt));
}

void
GbnEndpoint::onPacket(Packet pkt)
{
    auto seg = std::static_pointer_cast<const Segment>(pkt.msg);
    if (pkt.corrupted)
        return; // checksum drop; timers recover

    if (seg->is_ack) {
        auto it = tx_flows_.find(pkt.src);
        if (it == tx_flows_.end())
            return;
        TxFlow &flow = it->second;
        // Cumulative ack: everything below `seq` is received.
        while (!flow.unacked.empty() &&
               flow.unacked.begin()->first < seg->seq) {
            flow.unacked.erase(flow.unacked.begin());
        }
        flow.base = std::max(flow.base, seg->seq);
        flow.timer_generation++; // restart timer for the new base
        pump(pkt.src, flow);
        return;
    }

    RxFlow &rx = rx_flows_[pkt.src];
    if (seg->seq != rx.expected_seq) {
        // Go-Back-N receivers drop out-of-order segments and re-ack.
        stats_.out_of_order_dropped++;
        sendAck(pkt.src, rx.expected_seq);
        return;
    }
    rx.expected_seq++;
    if (seg->msg_head) {
        rx.partial.clear();
        rx.msg_len = seg->msg_len;
    }
    rx.partial.insert(rx.partial.end(), seg->payload.begin(),
                      seg->payload.end());
    sendAck(pkt.src, rx.expected_seq);
    if (rx.partial.size() >= rx.msg_len) {
        stats_.delivered++;
        if (deliver_)
            deliver_(pkt.src, std::move(rx.partial));
        rx.partial.clear();
        rx.msg_len = 0;
    }
}

std::uint64_t
GbnEndpoint::stateBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[peer, flow] : tx_flows_) {
        total += 24; // sequence state
        for (const auto &[seq, seg] : flow.unacked)
            total += seg->payload.size() + 16;
        for (const auto &seg : flow.backlog)
            total += seg->payload.size() + 16;
    }
    for (const auto &[peer, rx] : rx_flows_)
        total += 16 + rx.partial.size();
    return total;
}

} // namespace clio
