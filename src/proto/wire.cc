#include "proto/wire.hh"

#include <algorithm>
#include <ostream>
#include <utility>

#include "proto/messages.hh"
#include "sim/logging.hh"

namespace clio {

std::ostream &
operator<<(std::ostream &os, Status status)
{
    return os << to_string(status);
}

std::uint32_t
packetCount(std::uint64_t payload_bytes, std::uint32_t mtu)
{
    const std::uint32_t payload_per_pkt = mtu - kPacketHeaderBytes;
    if (payload_bytes == 0)
        return 1;
    return static_cast<std::uint32_t>(
        (payload_bytes + payload_per_pkt - 1) / payload_per_pkt);
}

void
sendSplit(EventQueue &eq, Network &net, Tick when, NodeId src, NodeId dst,
          ReqId req_id, MsgType type, std::uint64_t payload_bytes,
          std::shared_ptr<const Message> msg)
{
    const std::uint32_t mtu = net.config().mtu;
    clio_assert(mtu > kPacketHeaderBytes, "MTU smaller than headers");
    const std::uint32_t payload_per_pkt = mtu - kPacketHeaderBytes;
    const std::uint32_t total = packetCount(payload_bytes, mtu);

    std::uint64_t offset = 0;
    for (std::uint32_t part = 0; part < total; part++) {
        Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.req_id = req_id;
        pkt.type = type;
        pkt.part = part;
        pkt.total_parts = total;
        pkt.payload_offset = offset;
        pkt.payload_len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            payload_per_pkt, payload_bytes - offset));
        pkt.wire_bytes = pkt.payload_len + kPacketHeaderBytes;
        pkt.msg = msg;
        offset += pkt.payload_len;

        if (when <= eq.now()) {
            net.send(std::move(pkt));
        } else {
            eq.schedule(when, [&net, pkt = std::move(pkt)]() mutable {
                net.send(std::move(pkt));
            });
        }
    }
}

PartTracker::Verdict
PartTracker::add(std::uint32_t part, std::uint32_t total_parts)
{
    if (part >= total_parts || (total_ != 0 && total_parts != total_))
        return Verdict::kMalformed;
    if (total_ == 0) {
        total_ = total_parts;
        if (total_parts > 64)
            spill_bits_.assign((total_parts - 1) / 64, 0);
    }
    std::uint64_t &word =
        part < 64 ? low_bits_ : spill_bits_[(part >> 6) - 1];
    const std::uint64_t bit = 1ull << (part & 63);
    if (word & bit)
        return Verdict::kDuplicate;
    word |= bit;
    seen_++;
    return Verdict::kNew;
}

void
PartTracker::reset()
{
    seen_ = 0;
    total_ = 0;
    low_bits_ = 0;
    spill_bits_.clear();
}

HeartbeatSource::HeartbeatSource(EventQueue &eq, Network &net, Stamp stamp)
    : eq_(eq), net_(net), stamp_(std::move(stamp))
{
}

void
HeartbeatSource::start(NodeId node, NodeId controller, Tick period,
                       Tick phase)
{
    clio_assert(period > 0, "heartbeat period must be positive");
    node_ = node;
    controller_ = controller;
    period_ = period;
    if (running_)
        return;
    running_ = true;
    eq_.scheduleAfter(phase, [this] { tick(); });
}

void
HeartbeatSource::tick()
{
    auto hb = std::make_shared<HeartbeatMsg>();
    if (stamp_(*hb)) {
        hb->node = node_;
        hb->seq = ++seq_;
        Packet pkt;
        pkt.src = node_;
        pkt.dst = controller_;
        pkt.type = MsgType::kHeartbeat;
        pkt.priority = true;
        pkt.wire_bytes = kPacketHeaderBytes + 24;
        pkt.msg = std::move(hb);
        net_.send(std::move(pkt));
    }
    eq_.scheduleAfter(period_, [this] { tick(); });
}

} // namespace clio
