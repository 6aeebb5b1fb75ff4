#include "clib/client.hh"

#include <algorithm>
#include <cstring>

#include "clib/queue.hh"
#include "sim/logging.hh"

namespace clio {

namespace {
/** Page size used for dependency tracking; must match the MN page
 * size for exactness but only affects false-positive granularity. */
constexpr std::uint64_t kTrackPage = 4 * MiB;
} // namespace

ClioClient::ClioClient(CNode &cn, ProcId pid, NodeId home_mn)
    : cn_(cn), pid_(pid), home_mn_(home_mn)
{
}

std::vector<ClioClient::Region>::iterator
ClioClient::regionAt(VirtAddr addr)
{
    return std::lower_bound(regions_.begin(), regions_.end(), addr,
                            [](const Region &r, VirtAddr a) {
                                return r.start < a;
                            });
}

void
ClioClient::noteRegion(VirtAddr addr, std::uint64_t size, NodeId mn)
{
    auto it = regionAt(addr);
    if (it != regions_.end() && it->start == addr) {
        it->length = size;
        it->mn = mn;
        return;
    }
    regions_.insert(it, Region{addr, size, mn, false});
}

NodeId
ClioClient::mnFor(VirtAddr addr) const
{
    // Greatest start <= addr, containment check.
    auto next = std::upper_bound(regions_.begin(), regions_.end(), addr,
                                 [](VirtAddr a, const Region &r) {
                                     return a < r.start;
                                 });
    if (next != regions_.begin()) {
        const Region &r = *std::prev(next);
        if (addr >= r.start && addr < r.start + r.length)
            return r.mn;
    }
    return home_mn_;
}

void
ClioClient::copyRoutingFrom(const ClioClient &other)
{
    clio_assert(pid_ == other.pid_,
                "routing can only be shared within one RAS (same PID)");
    regions_ = other.regions_;
}

void
ClioClient::redirectRegion(VirtAddr start, std::uint64_t length,
                           NodeId mn)
{
    // Update every fine-grained routing entry inside the region, then
    // make sure the coarse range itself resolves to the new MN.
    auto it = regionAt(start);
    const bool have_exact = it != regions_.end() && it->start == start;
    for (; it != regions_.end() && it->start < start + length; ++it)
        it->mn = mn;
    if (!have_exact)
        regions_.insert(regionAt(start), Region{start, length, mn, false});
}

// ---------------------------------------------------------------------
// Ordering layer (T2)
// ---------------------------------------------------------------------

bool
ClioClient::conflicts(const Footprint &a, const Footprint &b)
{
    if (a.barrier || b.barrier)
        return true;
    if (!a.is_write && !b.is_write)
        return false; // RAR never conflicts
    return a.first_vpn <= b.last_vpn && b.first_vpn <= a.last_vpn;
}


ClioClient::Footprint
ClioClient::span(VirtAddr addr, std::uint64_t len, bool is_write)
{
    return Footprint{addr / kTrackPage, (addr + len - 1) / kTrackPage,
                     is_write, false};
}

std::shared_ptr<RequestMsg>
ClioClient::newRequest(MsgType type, NodeId dst)
{
    auto req = cn_.requestPool().acquire();
    req->type = type;
    req->pid = pid_;
    req->dst = dst;
    return req;
}

HandlePtr
ClioClient::submit(std::shared_ptr<RequestMsg> req, Footprint fp,
                   std::uint64_t expected_resp_bytes, void *read_buf)
{
    Op op;
    op.op_seq = next_op_seq_++;
    op.fp = fp;
    op.handle = cn_.handlePool().acquire();
    op.req = std::move(req);
    op.expected_resp_bytes = expected_resp_bytes;
    op.read_buf = read_buf;
    HandlePtr handle = op.handle;
    // Blocked iff it conflicts with a queued or inflight op.
    // Independent ops may overtake the queue (release order allows
    // out-of-order execution of non-dependent requests).
    bool blocked = false;
    for (const auto &queued : pending_) {
        if (conflicts(op.fp, queued.fp)) {
            blocked = true;
            break;
        }
    }
    if (!blocked) {
        for (const InflightFp &inflight : inflight_fps_) {
            if (conflicts(op.fp, inflight.fp)) {
                blocked = true;
                break;
            }
        }
    }
    if (blocked) {
        stats_.ordering_stalls++;
        pending_.push_back(std::move(op));
    } else {
        issueNow(std::move(op));
    }
    return handle;
}

void
ClioClient::issueNow(Op op)
{
    const std::uint64_t seq = op.op_seq;
    auto req = op.req;
    const std::uint64_t expected = op.expected_resp_bytes;
    inflight_fps_.push_back(InflightFp{seq, op.fp});
    inflight_ops_.push_back(std::move(op));
    cn_.issue(std::move(req), expected,
              [this, seq](const ResponseMsg &resp) {
                  onComplete(seq, resp);
              });
}

void
ClioClient::onComplete(std::uint64_t op_seq, const ResponseMsg &resp)
{
    std::size_t idx = inflight_fps_.size();
    for (std::size_t i = 0; i < inflight_fps_.size(); i++) {
        if (inflight_fps_[i].op_seq == op_seq) {
            idx = i;
            break;
        }
    }
    clio_assert(idx < inflight_fps_.size(), "completion for unknown op");
    Op op = std::move(inflight_ops_[idx]);
    inflight_fps_[idx] = inflight_fps_.back();
    inflight_fps_.pop_back();
    inflight_ops_[idx] = std::move(inflight_ops_.back());
    inflight_ops_.pop_back();

    const Status status = resp.status;
    const std::uint64_t value = resp.value;
    op.handle->status = status;
    op.handle->value = value;
    op.handle->err_code = resp.err_code;
    if (op.read_buf && status == Status::kOk) {
        std::memcpy(op.read_buf, resp.data.data(),
                    std::min<std::uint64_t>(resp.data.size(),
                                            op.req->size));
    } else if (!op.read_buf && !resp.data.empty()) {
        // Offload results — or, on a failed offload, its error
        // message bytes.
        op.handle->data = resp.data;
    }
    if (!resp.stages.empty())
        op.handle->stages = resp.stages;

    // Post-processing of metadata ops.
    if (op.req->type == MsgType::kAlloc && status == Status::kOk) {
        noteRegion(value, op.req->size, op.req->dst);
        regionAt(value)->is_alloc = true;
    } else if (op.req->type == MsgType::kFree && status == Status::kOk) {
        auto it = regionAt(op.req->addr);
        if (it != regions_.end() && it->start == op.req->addr)
            regions_.erase(it);
    }

    op.handle->done = true;
    op.handle->completed_at_ = cn_.eventQueue().now();
    if (op.handle->cq_) {
        // Queue-based delivery: single-shot by construction (the
        // handle's latch is consumed inside deliver()).
        op.handle->cq_->deliver(op.handle);
    }
    drainPending();
}

void
ClioClient::drainPending()
{
    // Issue every queued op whose conflicts (against inflight ops and
    // *earlier* queued ops) have cleared, preserving order among
    // dependent requests only. Kept entries are compacted in place.
    std::vector<Footprint> earlier;
    earlier.reserve(pending_.size());
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending_.size(); i++) {
        bool blocked = false;
        for (const auto &fp : earlier) {
            if (conflicts(pending_[i].fp, fp)) {
                blocked = true;
                break;
            }
        }
        if (!blocked) {
            for (const InflightFp &inflight : inflight_fps_) {
                if (conflicts(pending_[i].fp, inflight.fp)) {
                    blocked = true;
                    break;
                }
            }
        }
        if (blocked) {
            earlier.push_back(pending_[i].fp);
            if (keep != i)
                pending_[keep] = std::move(pending_[i]);
            keep++;
        } else {
            issueNow(std::move(pending_[i]));
        }
    }
    pending_.resize(keep);
}

// ---------------------------------------------------------------------
// Asynchronous API
// ---------------------------------------------------------------------

HandlePtr
ClioClient::rallocAsync(std::uint64_t size, std::uint8_t perm,
                        bool populate, NodeId mn_override)
{
    stats_.allocs++;
    const NodeId mn = mn_override
                          ? mn_override
                          : (alloc_picker_ ? alloc_picker_(size)
                                           : home_mn_);
    auto req = newRequest(MsgType::kAlloc, mn);
    req->size = size;
    req->perm = perm;
    req->populate = populate;
    // Fresh VAs: no conflicts.
    return submit(std::move(req), Footprint{0, 0, false, false});
}

HandlePtr
ClioClient::rfreeAsync(VirtAddr addr)
{
    stats_.frees++;
    auto req = newRequest(MsgType::kFree, mnFor(addr));
    req->addr = addr;
    std::uint64_t size = kTrackPage;
    auto it = regionAt(addr);
    if (it != regions_.end() && it->start == addr && it->is_alloc)
        size = it->length;
    // A free conflicts with any access to the freed range (§3.1: no
    // read/write may start until the rfree finishes).
    return submit(std::move(req), span(addr, size, true));
}

HandlePtr
ClioClient::rreadAsync(VirtAddr addr, void *buf, std::uint64_t len)
{
    stats_.reads++;
    auto req = newRequest(MsgType::kRead, mnFor(addr));
    req->addr = addr;
    req->size = len;
    return submit(std::move(req), span(addr, len, false), len, buf);
}

HandlePtr
ClioClient::rwriteAsync(VirtAddr addr, const void *src, std::uint64_t len)
{
    std::vector<std::uint8_t> data(
        static_cast<const std::uint8_t *>(src),
        static_cast<const std::uint8_t *>(src) + len);
    return rwriteAsync(addr, std::move(data));
}

HandlePtr
ClioClient::rwriteAsync(VirtAddr addr, std::vector<std::uint8_t> data)
{
    stats_.writes++;
    const std::uint64_t len = data.size();
    auto req = newRequest(MsgType::kWrite, mnFor(addr));
    req->addr = addr;
    req->size = len;
    req->data = std::move(data);
    return submit(std::move(req), span(addr, len, true));
}

HandlePtr
ClioClient::atomicAsync(VirtAddr addr, AtomicOp aop, std::uint64_t arg0,
                        std::uint64_t arg1)
{
    stats_.atomics++;
    auto req = newRequest(MsgType::kAtomic, mnFor(addr));
    req->addr = addr;
    req->size = 8;
    req->aop = aop;
    req->arg0 = arg0;
    req->arg1 = arg1;
    // Ordered at the page of its first byte.
    return submit(std::move(req), span(addr, 1, true));
}

HandlePtr
ClioClient::fenceAsync()
{
    stats_.fences++;
    return submit(newRequest(MsgType::kFence, home_mn_),
                  Footprint{0, ~0ull, true, true}); // full barrier
}

HandlePtr
ClioClient::offloadAsync(NodeId mn, std::uint32_t offload_id,
                         std::vector<std::uint8_t> arg,
                         std::uint64_t expected_resp_bytes)
{
    stats_.offloads++;
    auto req = newRequest(MsgType::kOffload, mn);
    req->offload_id = offload_id;
    req->offload_arg = std::move(arg);
    // Offloads act on the offload's own RAS; apps order them with
    // rpoll when needed.
    return submit(std::move(req), Footprint{0, 0, false, false},
                  expected_resp_bytes);
}

HandlePtr
ClioClient::rcallChainAsync(NodeId mn, const ChainPlan &plan,
                            std::uint64_t expected_resp_bytes)
{
    stats_.offloads++;
    stats_.offload_chains++;
    auto req = newRequest(MsgType::kOffload, mn);
    req->chain = plan.stages();
    req->chain_per_stage = plan.perStage();
    // Like single offloads: chains act on offload address spaces.
    return submit(std::move(req), Footprint{0, 0, false, false},
                  expected_resp_bytes);
}

bool
ClioClient::rpoll(const std::vector<HandlePtr> &handles)
{
    auto all_done = [&handles] {
        return std::all_of(handles.begin(), handles.end(),
                           [](const HandlePtr &h) { return h->done; });
    };
    const bool ok = cn_.eventQueue().runUntil(all_done);
    clio_assert(ok, "rpoll: simulation drained with requests pending");
    return std::all_of(handles.begin(), handles.end(),
                       [](const HandlePtr &h) {
                           return h->status == Status::kOk;
                       });
}

bool
ClioClient::rpoll(const HandlePtr &handle)
{
    return rpoll(std::vector<HandlePtr>{handle});
}

void
ClioClient::rrelease()
{
    const bool ok = cn_.eventQueue().runUntil(
        [this] { return inflight_fps_.empty() && pending_.empty(); });
    clio_assert(ok, "rrelease: simulation drained with requests pending");
}

// ---------------------------------------------------------------------
// Synchronous API
// ---------------------------------------------------------------------

Result<VirtAddr>
ClioClient::ralloc(std::uint64_t size, std::uint8_t perm, bool populate)
{
    auto h = rallocAsync(size, perm, populate);
    rpoll(h);
    return h->result();
}

Status
ClioClient::rfree(VirtAddr addr)
{
    auto h = rfreeAsync(addr);
    rpoll(h);
    return h->status;
}

Status
ClioClient::rread(VirtAddr addr, void *buf, std::uint64_t len)
{
    auto h = rreadAsync(addr, buf, len);
    rpoll(h);
    return h->status;
}

Status
ClioClient::rwrite(VirtAddr addr, const void *src, std::uint64_t len)
{
    auto h = rwriteAsync(addr, src, len);
    rpoll(h);
    return h->status;
}

Result<std::uint64_t>
ClioClient::rfaa(VirtAddr addr, std::uint64_t add)
{
    auto h = atomicAsync(addr, AtomicOp::kFetchAdd, add);
    rpoll(h);
    return h->result();
}

Status
ClioClient::rreadv(const std::vector<ReadSeg> &segs)
{
    SubmissionBatch batch(*this);
    for (const ReadSeg &seg : segs)
        batch.read(seg.addr, seg.buf, seg.len);
    return batch.submitAndWait().status;
}

Status
ClioClient::rwritev(const std::vector<WriteSeg> &segs)
{
    SubmissionBatch batch(*this);
    for (const WriteSeg &seg : segs)
        batch.write(seg.addr, seg.src, seg.len);
    return batch.submitAndWait().status;
}

bool
ClioClient::rlock(VirtAddr lock_addr, std::uint32_t max_spins)
{
    Tick backoff = 200 * kNanosecond;
    for (std::uint32_t spin = 0; spin < max_spins; spin++) {
        auto h = atomicAsync(lock_addr, AtomicOp::kTestAndSet);
        if (!rpoll(h))
            return false;
        if (h->value == 0)
            return true; // acquired
        // Lock held: back off before respinning (keeps MN atomic unit
        // and the network from thrashing).
        cn_.eventQueue().runUntilTime(cn_.eventQueue().now() + backoff);
        backoff = std::min<Tick>(backoff * 2, 20 * kMicrosecond);
    }
    return false;
}

void
ClioClient::runlock(VirtAddr lock_addr)
{
    auto h = atomicAsync(lock_addr, AtomicOp::kStore, 0);
    rpoll(h);
}

Status
ClioClient::rfence()
{
    auto h = fenceAsync();
    rpoll(h);
    return h->status;
}

Result<OffloadReply>
ClioClient::rcall(NodeId mn, std::uint32_t offload_id,
                  std::vector<std::uint8_t> arg,
                  std::uint64_t expected_resp_bytes)
{
    auto h = offloadAsync(mn, offload_id, std::move(arg),
                          expected_resp_bytes);
    rpoll(h);
    if (h->status != Status::kOk)
        return Result<OffloadReply>(
            h->status, h->err_code,
            std::string(h->data.begin(), h->data.end()));
    OffloadReply reply;
    reply.value = h->value;
    reply.data = std::move(h->data);
    return reply;
}

Result<OffloadReply>
ClioClient::rcall_chain(NodeId mn, const ChainPlan &plan,
                        std::uint64_t expected_resp_bytes)
{
    if (plan.depth() == 0) {
        // Reject locally: an empty chain would go out as a single
        // call for offload id 0.
        return Result<OffloadReply>(
            Status::kOffloadError,
            static_cast<std::uint32_t>(OffloadErrc::kBadArgument),
            "empty chain");
    }
    auto h = rcallChainAsync(mn, plan, expected_resp_bytes);
    rpoll(h);
    if (h->status != Status::kOk)
        return Result<OffloadReply>(
            h->status, h->err_code,
            std::string(h->data.begin(), h->data.end()));
    OffloadReply reply;
    reply.value = h->value;
    reply.data = std::move(h->data);
    reply.stages = std::move(h->stages);
    return reply;
}

} // namespace clio
