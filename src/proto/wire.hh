/**
 * @file
 * MTU splitting and reassembly (§4.5 T1): sendSplit slices one
 * message's payload into link-layer packets, each self-describing (full
 * Clio header + the payload byte range it carries), and hands them to
 * the network; PartTracker is the receive side that counts the parts
 * back in.
 */

#ifndef CLIO_PROTO_WIRE_HH
#define CLIO_PROTO_WIRE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace clio {

struct HeartbeatMsg;

/** Number of link-layer packets a payload of `payload_bytes` needs. */
std::uint32_t packetCount(std::uint64_t payload_bytes, std::uint32_t mtu);

/**
 * Split and transmit a message at tick `when` (>= now).
 *
 * @param payload_bytes bytes of sliceable payload (write data or read
 *        response data); header-only messages pass 0 and still produce
 *        one packet.
 */
void sendSplit(EventQueue &eq, Network &net, Tick when, NodeId src,
               NodeId dst, ReqId req_id, MsgType type,
               std::uint64_t payload_bytes,
               std::shared_ptr<const Message> msg);

/**
 * Receive-side reassembly state of one split message: which of its
 * parts have arrived. The first well-formed part fixes the part count.
 * A switch-duplicated part must not count twice (it would complete the
 * message with a sibling part missing), and a part index beyond the
 * count, or a count that disagrees with the first part's, is malformed.
 */
class PartTracker
{
  public:
    enum class Verdict : std::uint8_t { kNew, kDuplicate, kMalformed };

    /** Record one arriving part; only kNew counts toward complete().
     * The first well-formed part starts the tracker. */
    Verdict add(std::uint32_t part, std::uint32_t total_parts);
    /** Whether every part of the message has arrived. */
    bool complete() const { return total_ != 0 && seen_ == total_; }
    /** Forget every part (the spill bitmap keeps its capacity). */
    void reset();

  private:
    std::uint32_t seen_ = 0;
    std::uint32_t total_ = 0;
    /** Parts 0-63, which is every part of all but the largest
     * messages, so tracking them allocates nothing. */
    std::uint64_t low_bits_ = 0;
    /** Parts 64 and up, for messages of more than 64 parts. */
    std::vector<std::uint64_t> spill_bits_;
};

/**
 * Liveness beacons of one node (health plane). Once started, a
 * self-rescheduling tick sends a HeartbeatMsg to the controller every
 * period on the priority control lane, so a bulk transfer on the node's
 * link cannot starve it into a false lease expiry. Beacons are real
 * packets through the fabric: rack kills and fault windows genuinely
 * delay or drop them. The tick keeps running while the node is down and
 * just stays silent, so beacons resume by themselves after a restart.
 */
class HeartbeatSource
{
  public:
    /** Stamps a beacon with the node's epoch and incarnation and counts
     * it; returns false while the node is down (no beacon is sent). */
    using Stamp = std::function<bool(HeartbeatMsg &)>;

    HeartbeatSource(EventQueue &eq, Network &net, Stamp stamp);
    HeartbeatSource(const HeartbeatSource &) = delete;
    HeartbeatSource &operator=(const HeartbeatSource &) = delete;

    /** Beacon from `node` to `controller` every `period` ticks, the
     * first at `phase`. On a running source this only retargets. */
    void start(NodeId node, NodeId controller, Tick period, Tick phase);
    /** Restart the beacon sequence numbers (the node rebooted). */
    void resetSequence() { seq_ = 0; }

  private:
    void tick();

    EventQueue &eq_;
    Network &net_;
    Stamp stamp_;
    NodeId node_ = 0;
    NodeId controller_ = 0;
    Tick period_ = 0;
    std::uint64_t seq_ = 0;
    bool running_ = false;
};

} // namespace clio

#endif // CLIO_PROTO_WIRE_HH
