#include "clib/queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

// ---------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------

void
CompletionQueue::watch(const HandlePtr &handle, std::uint64_t tag)
{
    clio_assert(handle != nullptr, "watch on a null handle");
    clio_assert(!handle->delivered_ && handle->cq_ == nullptr,
                "handle is already bound to a completion queue");
    handle->tag_ = tag;
    if (handle->done) {
        // Completed before registration (e.g. a zero-latency failure):
        // deliver immediately, still exactly once.
        deliver(handle);
        return;
    }
    handle->cq_ = this;
    outstanding_++;
}

void
CompletionQueue::deliver(const HandlePtr &handle)
{
    if (!handle || handle->delivered_)
        return; // single-shot: a second completion is a no-op
    clio_assert(handle->done, "delivering an incomplete handle");
    clio_assert(handle->cq_ == nullptr || handle->cq_ == this,
                "handle is bound to a different completion queue");
    handle->delivered_ = true;
    if (handle->cq_) {
        handle->cq_ = nullptr;
        clio_assert(outstanding_ > 0, "completion queue underflow");
        outstanding_--;
    }
    Completion c;
    c.tag = handle->tag_;
    c.status = handle->status;
    c.value = handle->value;
    c.data = std::move(handle->data);
    // The tick the request finished, not the (possibly later) tick it
    // was registered or popped.
    c.completed_at = handle->completed_at_;
    ready_.push_back(std::move(c));
    if (drain_hook_ && drain_event_ == kNoEvent) {
        // Deferred via a zero-delay event: deliver() runs inside the
        // client's completion path, and the hook typically issues new
        // requests — re-entering the client mid-update would be
        // fragile. One pending invocation coalesces a delivery burst.
        drain_event_ = eq_.schedule(eq_.now(), [this] {
            drain_event_ = kNoEvent;
            if (drain_hook_)
                drain_hook_();
        });
    }
}

std::vector<Completion>
CompletionQueue::poll(std::size_t max_n)
{
    std::vector<Completion> out;
    const std::size_t n = std::min(max_n, ready_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        out.push_back(std::move(ready_.front()));
        ready_.pop_front();
    }
    return out;
}

std::vector<Completion>
CompletionQueue::rpoll_cq(std::size_t max_n)
{
    if (ready_.empty() && outstanding_ > 0) {
        const bool ok =
            eq_.runUntil([this] { return !ready_.empty(); });
        clio_assert(ok, "rpoll_cq: simulation drained with %zu "
                        "completions outstanding",
                    outstanding_);
    }
    return poll(max_n);
}

// ---------------------------------------------------------------------
// SubmissionBatch
// ---------------------------------------------------------------------

ClioClient &
SubmissionBatch::client()
{
    clio_assert(client_ != nullptr, "staging on an empty batch");
    return *client_;
}

std::size_t
SubmissionBatch::stage(ClioClient::Op op)
{
    ops_.push_back(std::move(op));
    return ops_.size() - 1;
}

std::size_t
SubmissionBatch::read(VirtAddr addr, void *buf, std::uint64_t len)
{
    return stage(client().buildRead(addr, buf, len));
}

std::size_t
SubmissionBatch::write(VirtAddr addr, const void *src, std::uint64_t len,
                       ReqId orig_req_id)
{
    // The payload is copied now: the source may be gone by submit()
    // time (e.g. an actor's stack frame when the runner submits).
    return stage(client().buildWrite(addr, src, len, orig_req_id));
}

std::size_t
SubmissionBatch::alloc(std::uint64_t size, std::uint8_t perm,
                       bool populate, NodeId mn_override)
{
    return stage(client().buildAlloc(size, perm, populate, mn_override));
}

std::size_t
SubmissionBatch::free(VirtAddr addr)
{
    return stage(client().buildFree(addr));
}

std::size_t
SubmissionBatch::atomic(VirtAddr addr, AtomicOp op, std::uint64_t arg0,
                        std::uint64_t arg1)
{
    return stage(client().buildAtomic(addr, op, arg0, arg1));
}

std::size_t
SubmissionBatch::fence()
{
    return stage(client().buildFence());
}

void
SubmissionBatch::submit(CompletionQueue &cq, std::uint64_t base_tag,
                        std::uint64_t tag_stride)
{
    clio_assert(client_ != nullptr, "submit on an empty batch");
    clio_assert(!submitted_, "a batch can be submitted only once");
    submitted_ = true;
    client_->stats_.batches++;
    client_->stats_.batched_ops += ops_.size();
    std::uint64_t tag = base_tag;
    for (ClioClient::Op &op : ops_) {
        cq.watch(client_->admit(std::move(op)), tag);
        tag += tag_stride;
    }
    ops_.clear();
}

BatchOutcome
SubmissionBatch::submitAndWait()
{
    clio_assert(client_ != nullptr, "submit on an empty batch");
    const std::size_t n = ops_.size();
    Outcome out;
    out.completions.resize(n);
    CompletionQueue cq(client_->cnode().eventQueue());
    submit(cq, 0, 1);
    std::size_t seen = 0;
    while (seen < n) {
        auto comps = cq.rpoll_cq(n - seen);
        clio_assert(!comps.empty(), "batch completions lost");
        for (Completion &c : comps) {
            const auto index = static_cast<std::size_t>(c.tag);
            out.completions[index] = std::move(c);
            seen++;
        }
    }
    for (const Completion &c : out.completions) {
        if (!c.ok()) {
            out.status = c.status;
            break;
        }
    }
    return out;
}

} // namespace clio
