/**
 * @file
 * Per-process CLib API (§3.1) + the request ordering layer (§4.5 T2).
 *
 * A ClioClient is one application process' view of its remote address
 * space (RAS). It offers the paper's API — ralloc / rfree / rread /
 * rwrite (sync + async), rpoll, rlock / runlock / rfence, rrelease —
 * and enforces intra-thread inter-request ordering at the CN:
 * concurrent asynchronous requests with WAR / RAW / WAW dependencies
 * on the same page are never outstanding together; conflicting
 * requests are queued and issued only when their predecessors finish.
 *
 * Three layers of surface, highest first:
 *  - typed sync calls returning Result<T> (see result.hh), plus
 *    RemotePtr/RemoteSlice/RemoteRegion wrappers (remote_ptr.hh);
 *  - batched submission: SubmissionBatch groups N requests into one
 *    doorbell and a CompletionQueue delivers their completions in
 *    completion order (queue.hh) — the io_uring/verbs SQ/CQ idiom;
 *  - raw async handles + rpoll, the low-level path the other two are
 *    built on (and what tests use to pin ordering semantics). An async
 *    call and a staged batch op build their request with the same
 *    per-kind builder and admit it to the same ordering layer.
 *
 * Synchronous calls pump the cluster's event queue until completion,
 * which lets single-threaded application code drive the simulation
 * naturally (other actors' events interleave while pumping).
 */

#ifndef CLIO_CLIB_CLIENT_HH
#define CLIO_CLIB_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "clib/cnode.hh"
#include "clib/result.hh"
#include "offload/chain.hh"
#include "pagetable/pte.hh"
#include "proto/messages.hh"
#include "sim/stats.hh"

namespace clio {

class CompletionQueue;
class SubmissionBatch;
class ReplicaRegistry;

/**
 * Completion handle returned by asynchronous APIs. Complete it via
 * rpoll(), or register it on a CompletionQueue (watch / batch submit)
 * for queue-based delivery. The continuation is owned by the bound
 * CompletionQueue and fires at most once by construction — there is
 * deliberately no user-mutable callback here.
 */
struct RequestHandle
{
    bool done = false;
    Status status = Status::kOk;
    /** Scalar result (allocated VA, atomic old value, offload value). */
    std::uint64_t value = 0;
    /** Offload result payload (reads land in the caller's buffer).
     * Moved into the Completion when a CompletionQueue is bound. A
     * failed offload carries its error message bytes here. */
    std::vector<std::uint8_t> data;
    /** Offload-defined error code (offload/errc.hh); 0 unless an
     * offload invocation failed. */
    std::uint32_t err_code = 0;
    /** Per-stage replies of a chained offload call (filled only when
     * the plan asked for perStageReplies()). */
    std::vector<OffloadStageReply> stages;

    /** Scalar result as a typed Result (status + value). */
    Result<std::uint64_t> result() const
    {
        if (status != Status::kOk)
            return status;
        return value;
    }

  private:
    friend class ClioClient;
    friend class CompletionQueue;
    template <typename, std::size_t> friend class MessagePool;
    /** Restore default-constructed state (MessagePool reuse; the pool
     * only recycles a handle once the app dropped every reference). */
    void
    reset()
    {
        done = false;
        status = Status::kOk;
        value = 0;
        data.clear();
        err_code = 0;
        stages.clear();
        cq_ = nullptr;
        tag_ = 0;
        delivered_ = false;
        completed_at_ = 0;
    }
    /** Queue this handle's completion is delivered to (at most one;
     * bound via CompletionQueue::watch or SubmissionBatch::submit). */
    CompletionQueue *cq_ = nullptr;
    std::uint64_t tag_ = 0;
    /** Single-shot latch: set when the completion is delivered. */
    bool delivered_ = false;
    /** Simulated time the request completed (stamped by the client,
     * surfaced as Completion::completed_at even when the handle is
     * watched only after completion). */
    Tick completed_at_ = 0;
};

using HandlePtr = std::shared_ptr<RequestHandle>;

/** Reply of a synchronous offload invocation (extend path, §4.6). */
struct OffloadReply
{
    /** Scalar result register. */
    std::uint64_t value = 0;
    /** Result payload. */
    std::vector<std::uint8_t> data;
    /** Per-stage replies of a chained call (only when the plan asked
     * for perStageReplies()). */
    std::vector<OffloadStageReply> stages;
};

/** Per-client operation counters. */
struct ClientStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t atomics = 0;
    std::uint64_t fences = 0;
    std::uint64_t offloads = 0;
    std::uint64_t offload_chains = 0;  ///< chained plans submitted
    std::uint64_t ordering_stalls = 0; ///< requests queued on a conflict
    std::uint64_t batches = 0;         ///< SubmissionBatch doorbells
    std::uint64_t batched_ops = 0;     ///< ops submitted via batches
};

/** One application process using Clio. */
class ClioClient
{
  public:
    /**
     * @param home_mn default MN for allocations (overridden by the
     *        cluster's placement hook in multi-MN setups).
     * @param replicas the Cluster's registry, which ReplicatedRegions
     *        built over this client join (the controller marks them).
     */
    ClioClient(CNode &cn, ProcId pid, NodeId home_mn,
               ReplicaRegistry &replicas);

    ProcId pid() const { return pid_; }
    CNode &cnode() { return cn_; }
    const CNode &cnode() const { return cn_; }
    ReplicaRegistry &replicaRegistry() const { return replicas_; }

    /** Cluster hook choosing the MN for a new allocation (§4.7). */
    void
    setAllocPlacement(std::function<NodeId(std::uint64_t)> picker)
    {
        alloc_picker_ = std::move(picker);
    }

    /** Record that [addr, addr+size) is served by `mn` (set by ralloc
     * internally; also called by the controller after migration). */
    void noteRegion(VirtAddr addr, std::uint64_t size, NodeId mn);

    /** MN currently serving `addr` (home MN when unknown). */
    NodeId mnFor(VirtAddr addr) const;

    /** Controller push after a migration (§4.7): every VA inside
     * [start, start+length) is now served by `mn`. */
    void redirectRegion(VirtAddr start, std::uint64_t length, NodeId mn);

    /** Adopt another client's routing + allocation tables (used when
     * attaching to an existing RAS from a different CN, §3.1). The
     * two clients must share a PID. Later allocations by either side
     * are shared at the MN but routed locally, so applications
     * exchange new region info themselves (as the paper's shared-RAS
     * programs do). */
    void copyRoutingFrom(const ClioClient &other);

    /** @{ Asynchronous API (§3.1). Handles complete via rpoll(), or
     * via a CompletionQueue when registered on one.
     * @param mn_override kNoNode = placement policy picks the MN;
     *        otherwise the allocation targets this node (replication,
     *        tests). */
    HandlePtr rallocAsync(std::uint64_t size,
                          std::uint8_t perm = kPermReadWrite,
                          bool populate = false,
                          NodeId mn_override = kNoNode);
    HandlePtr rfreeAsync(VirtAddr addr);
    HandlePtr rreadAsync(VirtAddr addr, void *buf, std::uint64_t len);
    /** The payload is copied before the call returns. Of all writes
     * with one nonzero `orig_req_id` (CNode::newReqId()), one runs. */
    HandlePtr rwriteAsync(VirtAddr addr, const void *src,
                          std::uint64_t len, ReqId orig_req_id = 0);
    HandlePtr atomicAsync(VirtAddr addr, AtomicOp op,
                          std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);
    HandlePtr fenceAsync();
    HandlePtr offloadAsync(NodeId mn, std::uint32_t offload_id,
                           std::vector<std::uint8_t> arg,
                           std::uint64_t expected_resp_bytes = 256);
    /** Submit a chained offload plan (chain.hh): the stages execute
     * back to back on the MN, one network round trip total. */
    HandlePtr rcallChainAsync(NodeId mn, const ChainPlan &plan,
                              std::uint64_t expected_resp_bytes = 256);
    /** @} */

    /** Pump the simulation until every handle completes.
     * @retval true when all completed with Status::kOk. */
    bool rpoll(const std::vector<HandlePtr> &handles);
    bool rpoll(const HandlePtr &handle);

    /** Release barrier: wait until every inflight request of this
     * client returns (T2's rrelease semantics). */
    void rrelease();

    /** @{ Synchronous API: async + rpoll, typed results. */
    Result<VirtAddr> ralloc(std::uint64_t size,
                            std::uint8_t perm = kPermReadWrite,
                            bool populate = false);
    Status rfree(VirtAddr addr);
    Status rread(VirtAddr addr, void *buf, std::uint64_t len);
    Status rwrite(VirtAddr addr, const void *src, std::uint64_t len);
    /** Atomic fetch-add on a remote 64-bit word. */
    Result<std::uint64_t> rfaa(VirtAddr addr, std::uint64_t add);
    /** @} */

    /** @{ Synchronization primitives (§3.1), MN-executed (T3). */
    bool rlock(VirtAddr lock_addr, std::uint32_t max_spins = 1u << 20);
    void runlock(VirtAddr lock_addr);
    Status rfence();
    /** @} */

    /** Synchronous offload invocation (extend path, §4.6). On failure
     * the Result carries the offload-defined error code + message. */
    Result<OffloadReply> rcall(NodeId mn, std::uint32_t offload_id,
                               std::vector<std::uint8_t> arg,
                               std::uint64_t expected_resp_bytes = 256);

    /** Synchronous chained offload call: submit the whole plan, get
     * the final stage's reply (or every stage's, when the plan asked
     * for perStageReplies()) after ONE round trip. */
    Result<OffloadReply> rcall_chain(NodeId mn, const ChainPlan &plan,
                                     std::uint64_t expected_resp_bytes = 256);

    const ClientStats &stats() const { return stats_; }

    /** Inflight + queued request count (test hook). */
    std::size_t outstanding() const {
        return inflight_fps_.size() + pending_.size();
    }

  private:
    friend class SubmissionBatch;

    /** Page-interval footprint of one request for conflict checks. */
    struct Footprint
    {
        std::uint64_t first_vpn = 0;
        std::uint64_t last_vpn = 0;
        bool is_write = false;
        /** Full barrier (fence/release): conflicts with everything. */
        bool barrier = false;
    };
    static_assert(std::is_trivially_copyable_v<Footprint>);

    /** A request on its way through T2: built by newOp and a builder,
     * given its sequence number and handle by admit(). */
    struct Op
    {
        std::uint64_t op_seq = 0;
        Footprint fp;
        HandlePtr handle;
        std::shared_ptr<RequestMsg> req;
        std::uint64_t expected_resp_bytes = 0;
        void *read_buf = nullptr;
    };

    /**
     * One routing/allocation record: [start, start+length) is served
     * by `mn`. Trivially copyable; kept in one flat vector sorted by
     * `start` (binary-searched on every request), merging what used
     * to be two std::maps — at 10^4+ processes per CN the per-node
     * map allocations dominated the client-state footprint.
     */
    struct Region
    {
        VirtAddr start = 0;
        std::uint64_t length = 0;
        NodeId mn = 0;
        /** Set when the record is a local ralloc (its length is the
         * allocation size, used for the rfree conflict footprint);
         * routing-only entries (redirect/noteRegion) leave it clear. */
        bool is_alloc = false;
    };
    static_assert(std::is_trivially_copyable_v<Region>);

    static bool conflicts(const Footprint &a, const Footprint &b);

    /** First record with start >= `addr`. */
    std::vector<Region>::iterator regionAt(VirtAddr addr);

    /** Footprint of a `len`-byte access at `addr`. */
    static Footprint span(VirtAddr addr, std::uint64_t len, bool is_write);

    /** An op around a pooled request of `type` from this process,
     * bound for `dst`, with T2 footprint `fp`. */
    Op newOp(MsgType type, NodeId dst, Footprint fp);

    /** @{ One builder per kind that SubmissionBatch stages; the async
     * calls admit what they build. Each counts its kind in stats_ and
     * does no I/O; a write's source need only live through the build. */
    Op buildAlloc(std::uint64_t size, std::uint8_t perm, bool populate,
                  NodeId mn_override);
    Op buildFree(VirtAddr addr);
    Op buildRead(VirtAddr addr, void *buf, std::uint64_t len);
    Op buildWrite(VirtAddr addr, const void *src, std::uint64_t len,
                  ReqId orig_req_id);
    Op buildAtomic(VirtAddr addr, AtomicOp aop, std::uint64_t arg0,
                   std::uint64_t arg1);
    Op buildFence();
    /** @} */

    /** Issue a built op now or queue it behind conflicting ones (T2). */
    HandlePtr admit(Op op);
    void issueNow(Op op);
    void onComplete(std::uint64_t op_seq, const ResponseMsg &resp);
    void drainPending();

    CNode &cn_;
    ProcId pid_;
    NodeId home_mn_;
    std::function<NodeId(std::uint64_t)> alloc_picker_;
    ReplicaRegistry &replicas_;

    /** Region routing + allocation table, sorted by start. */
    std::vector<Region> regions_;

    std::uint64_t next_op_seq_ = 1;
    /** Issued-but-incomplete ops, struct-of-arrays: the conflict scan
     * on every submit touches only the packed (seq, footprint) array;
     * the Op bodies ride in a parallel array (swap-removed together).
     */
    struct InflightFp
    {
        std::uint64_t op_seq = 0;
        Footprint fp;
    };
    static_assert(std::is_trivially_copyable_v<InflightFp>);
    std::vector<InflightFp> inflight_fps_;
    std::vector<Op> inflight_ops_;
    /** Ops queued on conflicts, FIFO (compacted in place on drain). */
    std::vector<Op> pending_;

    ClientStats stats_;
};

} // namespace clio

#endif // CLIO_CLIB_CLIENT_HH
