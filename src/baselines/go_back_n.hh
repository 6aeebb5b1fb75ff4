/**
 * @file
 * Go-Back-N reference transport (Fig. 22's "Go-Back-N" row).
 *
 * This is the conventional, stateful hardware transport design that
 * Clio deliberately avoids: per-flow sequence numbers at both ends, a
 * per-flow retransmission buffer at the sender, cumulative ACKs, and
 * in-order delivery. It is implemented here (a) as the comparison
 * point for the FPGA resource estimate — its per-flow buffers dwarf
 * Clio's transportless network stack — and (b) as a working transport
 * whose behaviour under loss can be tested against CLib's
 * request-level retry.
 *
 * One GbnEndpoint terminates any number of flows, each identified by
 * the peer node id. Messages are byte blobs delivered reliably and in
 * order per flow.
 */

#ifndef CLIO_BASELINES_GO_BACK_N_HH
#define CLIO_BASELINES_GO_BACK_N_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace clio {

/** Statistics for one endpoint. */
struct GbnStats
{
    std::uint64_t data_sent = 0;
    std::uint64_t data_retransmitted = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t out_of_order_dropped = 0;
};

/** A Go-Back-N endpoint bound to one network node. */
class GbnEndpoint
{
  public:
    /** Delivery callback: (peer, message bytes). */
    using DeliverFn =
        std::function<void(NodeId, std::vector<std::uint8_t>)>;

    /**
     * @param window   sender window in segments.
     * @param rto      retransmission timeout.
     * @param mtu      segment payload limit.
     */
    GbnEndpoint(EventQueue &eq, Network &net, DeliverFn deliver,
                std::uint32_t window = 16,
                Tick rto = 100 * kMicrosecond, std::uint32_t mtu = 1408);

    NodeId nodeId() const { return node_; }

    /** Reliably send a message to a peer endpoint (in-order). */
    void send(NodeId peer, std::vector<std::uint8_t> message);

    const GbnStats &stats() const { return stats_; }

    /**
     * Bytes of transport state this endpoint currently holds:
     * retransmission buffers + reassembly buffers + per-flow sequence
     * state. This is the quantity Fig. 22 contrasts with Clio's
     * transportless MN (which holds none of it).
     */
    std::uint64_t stateBytes() const;

    /** Number of flows with live state. */
    std::size_t flowCount() const {
        return tx_flows_.size() + rx_flows_.size();
    }

  private:
    /** Transport segment carried inside a generic network packet. */
    struct Segment : Message
    {
        bool is_ack = false;
        std::uint64_t seq = 0;       ///< segment seq / cumulative ack
        std::uint32_t msg_len = 0;   ///< total message bytes (head seg)
        bool msg_head = false;       ///< first segment of a message
        std::vector<std::uint8_t> payload;
    };

    struct TxFlow
    {
        std::uint64_t next_seq = 0;   ///< next new segment number
        std::uint64_t base = 0;       ///< oldest unacked
        /** Unacked segments, seq -> segment (retransmission buffer). */
        std::map<std::uint64_t, std::shared_ptr<Segment>> unacked;
        /** Segments not yet admitted by the window. */
        std::deque<std::shared_ptr<Segment>> backlog;
        std::uint64_t timer_generation = 0;
    };

    struct RxFlow
    {
        std::uint64_t expected_seq = 0;
        /** Reassembly of the in-progress message. */
        std::vector<std::uint8_t> partial;
        std::uint32_t msg_len = 0;
    };

    void onPacket(Packet pkt);
    void pump(NodeId peer, TxFlow &flow);
    void transmitSegment(NodeId peer, const std::shared_ptr<Segment> &seg);
    void armTimer(NodeId peer, std::uint64_t generation);
    void onTimeout(NodeId peer, std::uint64_t generation);
    void sendAck(NodeId peer, std::uint64_t cumulative);

    EventQueue &eq_;
    Network &net_;
    DeliverFn deliver_;
    NodeId node_;
    std::uint32_t window_;
    Tick rto_;
    std::uint32_t mtu_payload_;

    std::unordered_map<NodeId, TxFlow> tx_flows_;
    std::unordered_map<NodeId, RxFlow> rx_flows_;
    GbnStats stats_;
};

} // namespace clio

#endif // CLIO_BASELINES_GO_BACK_N_HH
