/**
 * @file
 * Clio request/response message definitions (the "wire protocol"
 * between CLib at CNs and CBoards at MNs, §3.1/§4.4).
 *
 * A request carries everything the MN needs to process it in isolation
 * (Principle 5): pid, full addressing, operation arguments, and — for
 * retries — the id of the original attempt so the MN's dedup buffer
 * can suppress double execution (§4.5 T4).
 */

#ifndef CLIO_PROTO_MESSAGES_HH
#define CLIO_PROTO_MESSAGES_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "sim/types.hh"

namespace clio {

/** Atomic operations executed by the MN synchronization unit (T3). */
enum class AtomicOp : std::uint8_t {
    kTestAndSet, ///< rlock acquire: returns old value, sets to 1
    kStore,      ///< runlock release: unconditional store
    kFetchAdd,   ///< general-purpose fetch-and-add
    kCompareSwap ///< general-purpose CAS
};

/** Completion status returned by the MN. */
enum class Status : std::uint8_t {
    kOk,
    kBadAddress,     ///< VA not allocated (no PTE)
    kPermDenied,     ///< permission check failed in the fast path
    kOutOfMemory,    ///< allocation could not be satisfied
    kRetryExceeded,  ///< CLib-side: retries exhausted on NACK/corruption
    kCorrupt,        ///< NACK: link-layer checksum failure at the MN
    kOffloadError,   ///< extend-path offload rejected the call
    kTimeout,        ///< CLib-side: retries exhausted, last failure was
                     ///< a timeout (dead/unreachable MN)
    kEpochFenced,    ///< MN rejected a request stamped with a stale
                     ///< membership epoch (split-brain fence)
};

/** Human-readable status name (log + test failure messages). */
inline const char *
to_string(Status status)
{
    switch (status) {
      case Status::kOk:
        return "Ok";
      case Status::kBadAddress:
        return "BadAddress";
      case Status::kPermDenied:
        return "PermDenied";
      case Status::kOutOfMemory:
        return "OutOfMemory";
      case Status::kRetryExceeded:
        return "RetryExceeded";
      case Status::kCorrupt:
        return "Corrupt";
      case Status::kOffloadError:
        return "OffloadError";
      case Status::kTimeout:
        return "Timeout";
      case Status::kEpochFenced:
        return "EpochFenced";
    }
    return "Status(?)";
}

/** Stream a status by name, so gtest failures read "BadAddress"
 * rather than a raw enum integer (defined in wire.cc to keep this
 * hot header free of <ostream>). */
std::ostream &operator<<(std::ostream &os, Status status);

/** Sentinel for OffloadChainBind::src_stage: the immediately
 * preceding stage of the chain. */
constexpr std::uint32_t kOffloadPrevStage = 0xFFFFFFFFu;

/**
 * One dataflow edge of a chained offload plan: copy bytes from an
 * earlier stage's reply into this stage's argument before it runs,
 * entirely on the MN (no CN round trip between stages, §4.6).
 */
struct OffloadChainBind
{
    /** Reply to read from: an explicit earlier stage index, or
     * kOffloadPrevStage for the immediately preceding stage. */
    std::uint32_t src_stage = kOffloadPrevStage;
    /** Bind the stage's 8-byte value register instead of its data
     * payload (src_offset then indexes into those 8 bytes). */
    bool from_value = false;
    std::uint32_t src_offset = 0; ///< offset into the source reply
    std::uint32_t dst_offset = 0; ///< offset into this stage's arg
    std::uint32_t len = 8;        ///< bytes copied
};

/** One stage of a chained offload plan. */
struct OffloadChainStage
{
    std::uint32_t offload_id = 0;
    /** Argument template; binds patch it before dispatch. */
    std::vector<std::uint8_t> arg;
    std::vector<OffloadChainBind> binds;
    /** Terminate the chain successfully after this stage when its
     * reply value is 0 (pointer-chase miss semantics). */
    bool stop_on_zero_value = false;
};

/** Reply of one chain stage (per-stage reply mode). */
struct OffloadStageReply
{
    Status status = Status::kOk;
    /** Offload-defined error code (see offload/errc.hh). */
    std::uint32_t err_code = 0;
    std::uint64_t value = 0;
    std::vector<std::uint8_t> data;
};

/** One Clio request (CN -> MN). */
struct RequestMsg : Message
{
    MsgType type = MsgType::kRead;
    /** Global process id the request acts for (§3.1). */
    ProcId pid = 0;
    /** This attempt's unique id. */
    ReqId req_id = 0;
    /** First attempt's id; == req_id on the first try. A retry keeps
     * the original id here so the MN can deduplicate (T4). */
    ReqId orig_req_id = 0;
    /** Issuing CN's network node. */
    NodeId src = 0;
    /** Target MN's network node. */
    NodeId dst = 0;

    /** Target VA (read/write/atomic/free) within the pid's RAS. */
    VirtAddr addr = 0;
    /** Length in bytes (read size, write size, alloc size). */
    std::uint64_t size = 0;
    /** Write payload (size bytes) — carried sliced across packets. */
    std::vector<std::uint8_t> data;

    /** @{ Atomic arguments. */
    AtomicOp aop = AtomicOp::kTestAndSet;
    std::uint64_t arg0 = 0; ///< store value / addend / CAS expected
    std::uint64_t arg1 = 0; ///< CAS desired
    /** @} */

    /** Allocation permissions (kAlloc). */
    std::uint8_t perm = 0;
    /** kAlloc: eagerly bind physical frames (pre-populated allocation,
     * Fig. 12's Clio-Alloc-Phys series). */
    bool populate = false;

    /** @{ Extend-path offload invocation (kOffload). A non-empty
     * `chain` makes this a chained call: the stages execute back to
     * back on the MN (offload_id/offload_arg are then unused). */
    std::uint32_t offload_id = 0;
    std::vector<std::uint8_t> offload_arg;
    std::vector<OffloadChainStage> chain;
    /** Chained call: return every stage's reply (ResponseMsg::stages)
     * instead of the final stage's only. */
    bool chain_per_stage = false;
    /** @} */

    /** Membership epoch the issuing CN believed current when this
     * attempt was transmitted (stamped per attempt, so a retry after
     * an epoch refresh carries the new epoch). MNs fence requests
     * whose epoch predates their rejoin epoch (kEpochFenced). */
    std::uint64_t epoch = 0;

    /** Restore default-constructed field values, keeping the payload
     * vectors' capacity (MessagePool reuse). */
    void
    reset()
    {
        type = MsgType::kRead;
        pid = 0;
        req_id = 0;
        orig_req_id = 0;
        src = 0;
        dst = 0;
        addr = 0;
        size = 0;
        data.clear();
        aop = AtomicOp::kTestAndSet;
        arg0 = 0;
        arg1 = 0;
        perm = 0;
        populate = false;
        offload_id = 0;
        offload_arg.clear();
        chain.clear();
        chain_per_stage = false;
        epoch = 0;
    }
};

/** One Clio response (MN -> CN); echoes the request id. */
struct ResponseMsg : Message
{
    ReqId req_id = 0;
    Status status = Status::kOk;
    /** Read data / offload result payload; offload failures carry the
     * error message bytes here. */
    std::vector<std::uint8_t> data;
    /** Scalar result: allocated VA, atomic's old value, etc. */
    std::uint64_t value = 0;
    /** Offload-defined error code (see offload/errc.hh); 0 unless a
     * kOffload request failed at the extend path. */
    std::uint32_t err_code = 0;
    /** Per-stage replies of a chained offload call (only filled when
     * the request asked for chain_per_stage). */
    std::vector<OffloadStageReply> stages;

    /** Restore default-constructed field values, keeping the payload
     * vector's capacity (MessagePool reuse). */
    void
    reset()
    {
        req_id = 0;
        status = Status::kOk;
        data.clear();
        value = 0;
        err_code = 0;
        stages.clear();
    }
};

/** One liveness beacon (node -> controller). A heartbeat is a real
 * message routed through the fabric, so rack kills, congestion, and
 * packet-fault windows genuinely delay or drop it. */
struct HeartbeatMsg : Message
{
    /** Sender's network node (redundant with Packet::src; kept so the
     * message is self-describing like every other Clio message). */
    NodeId node = 0;
    /** Monotonic per-sender beacon sequence number. */
    std::uint64_t seq = 0;
    /** Sender's restart count. A bump without a missed lease means the
     * node crashed and rebooted inside one lease window — the
     * controller must treat that as a death + rejoin (volatile state
     * was lost) even though no beacon deadline expired. */
    std::uint64_t incarnation = 0;
    /** Membership epoch the sender last observed (0 for a freshly
     * restarted node — lets the controller spot zombies). */
    std::uint64_t epoch = 0;
};

/**
 * Fixed-size recycling ring for shared_ptr-managed messages.
 *
 * The simulator allocates one RequestMsg/ResponseMsg (plus its payload
 * vector) per operation; at millions of simulated ops that malloc/free
 * churn dominates the hot path. The pool keeps a power-of-two ring of
 * shared_ptr slots: acquire() inspects the next slot, and if the pool
 * holds the LAST reference (use_count() == 1 — no packet, transport
 * table, or completion closure still points at the message) the object
 * is reset() — payload capacity retained — and handed out again.
 * Otherwise a fresh message is allocated into the slot. The use_count
 * check makes reuse safe by construction, and a pool deeper than the
 * peak number of simultaneously live messages recycles ~always.
 */
template <typename M, std::size_t N = 64>
class MessagePool
{
    static_assert((N & (N - 1)) == 0, "pool size must be a power of two");

  public:
    std::shared_ptr<M>
    acquire()
    {
        std::shared_ptr<M> &slot = slots_[cursor_];
        cursor_ = (cursor_ + 1) & (N - 1);
        if (slot && slot.use_count() == 1) {
            slot->reset();
            return slot;
        }
        slot = std::make_shared<M>();
        return slot;
    }

  private:
    std::array<std::shared_ptr<M>, N> slots_{};
    std::size_t cursor_ = 0;
};

/** Payload bytes a request carries on the wire (what the MTU split
 * slices): write data, offload argument bytes, or — for a chained
 * call — every stage's argument plus per-stage/bind descriptors. */
inline std::uint64_t
requestPayloadBytes(const RequestMsg &req)
{
    switch (req.type) {
      case MsgType::kWrite:
        return req.size;
      case MsgType::kOffload: {
        std::uint64_t payload = req.offload_arg.size();
        for (const OffloadChainStage &stage : req.chain) {
            payload += stage.arg.size() + 16; // stage descriptor
            payload += stage.binds.size() * 16;
        }
        return payload;
      }
      default:
        return 0;
    }
}

/** Payload bytes a response carries on the wire (read data / offload
 * result payload + per-stage replies of a chained call). */
inline std::uint64_t
responsePayloadBytes(const ResponseMsg &resp)
{
    std::uint64_t payload = resp.data.size();
    for (const OffloadStageReply &stage : resp.stages)
        payload += stage.data.size() + 16; // stage reply descriptor
    return payload;
}

} // namespace clio

#endif // CLIO_PROTO_MESSAGES_HH
