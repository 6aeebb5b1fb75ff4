#include "cboard/cboard.hh"

#include <algorithm>

namespace clio {

void
CBoard::bootstrapAsyncBuffer()
{
    // Boot-time pre-generation: the ARM fills the async buffer before
    // the board starts serving (§4.3). Reservation is capped to a
    // quarter of physical memory so tiny test MNs keep frames
    // available for eager allocation and migration admission.
    reserve_cap_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        async_buffer_.capacity(),
        std::max<std::uint64_t>(1, frames_.totalFrames() / 4)));
    while (async_buffer_.vacancy() > 0 &&
           async_buffer_.size() < reserve_cap_) {
        auto frame = frames_.allocate();
        if (!frame)
            break;
        async_buffer_.push(*frame);
    }
}

void
CBoard::maybeScheduleRefill()
{
    if (refill_pending_)
        return;
    if (async_buffer_.size() * 2 >= reserve_cap_)
        return;
    if (frames_.freeFrames() == 0)
        return;
    refill_pending_ = true;
    const std::uint32_t batch = std::min<std::uint32_t>(
        reserve_cap_ - async_buffer_.size(),
        static_cast<std::uint32_t>(frames_.freeFrames()));
    // The ARM pre-generates `batch` frames in the background; the
    // refill reaches the hardware FIFO through the FPGA<->ARM
    // interconnect (§4.3 — the latency the buffer exists to hide).
    const Tick done = eq_.now() + cfg_.slow_path.interconnect_crossing +
                      cfg_.slow_path.palloc_per_page * batch;
    refill_done_ = done;
    eq_.schedule(done, [this, batch, incarnation = incarnation_] {
        if (incarnation != incarnation_)
            return; // the board restarted: its new buffer is not ours
        refill_pending_ = false;
        for (std::uint32_t i = 0; i < batch; i++) {
            if (async_buffer_.size() >= reserve_cap_)
                break;
            auto frame = frames_.allocate();
            if (!frame)
                break;
            async_buffer_.push(*frame);
        }
        maybeScheduleRefill();
    });
}

std::optional<PhysAddr>
CBoard::popFreeFrame(Tick &t)
{
    auto frame = async_buffer_.pop();
    if (frame) {
        maybeScheduleRefill();
        return frame;
    }
    // Buffer ran dry: the faulting request waits for the background
    // refill (this should be rare — the refill throughput exceeds
    // line rate in the paper's design).
    auto direct = frames_.allocate();
    if (!direct)
        return std::nullopt; // physical memory exhausted
    maybeScheduleRefill();
    t = std::max(t, refill_pending_
                        ? refill_done_
                        : t + cfg_.slow_path.interconnect_crossing +
                              cfg_.slow_path.palloc_per_page);
    return direct;
}

Tick
CBoard::slowPathAlloc(ProcId pid, std::uint64_t size, std::uint8_t perm,
                      ResponseMsg &resp, bool populate)
{
    if (windowed_mode_ && valloc_.windowBytes(pid) == 0 &&
        window_request_) {
        // First allocation of this process on this MN: get windows
        // from the global controller (§4.7).
        window_request_(pid, size);
    }
    auto res = valloc_.allocate(pid, size, perm, page_table_);
    if (!res && window_request_ && window_request_(pid, size))
        res = valloc_.allocate(pid, size, perm, page_table_);
    if (!res) {
        stats_.out_of_memory++;
        resp.status = Status::kOutOfMemory;
        return cfg_.slow_path.valloc_base;
    }
    for (auto vpn : res->vpns)
        page_table_.insert(pid, vpn, perm);
    Tick cost = cfg_.slow_path.valloc_base +
                cfg_.slow_path.valloc_per_page * res->vpns.size() +
                cfg_.slow_path.valloc_retry * res->retries;
    if (populate) {
        // Eagerly bind physical frames (Clio-Alloc-Phys in Fig. 12).
        for (auto vpn : res->vpns) {
            auto frame = frames_.allocate();
            if (!frame) {
                resp.status = Status::kOutOfMemory;
                // Roll back bindings is unnecessary: faulting later
                // pages on demand is still correct.
                break;
            }
            page_table_.bindFrame(pid, vpn, *frame);
            cost += cfg_.slow_path.palloc_per_page;
        }
    }
    stats_.allocs++;
    stats_.alloc_retries += res->retries;
    resp.status = Status::kOk;
    resp.value = res->addr;
    return cost;
}

Tick
CBoard::slowPathFree(ProcId pid, VirtAddr addr, ResponseMsg &resp)
{
    auto res = valloc_.free(pid, addr);
    if (!res) {
        resp.status = Status::kBadAddress;
        return cfg_.slow_path.valloc_base / 2;
    }
    for (auto vpn : res->vpns) {
        Pte pte = page_table_.remove(pid, vpn);
        if (pte.present)
            freeFrame(pte.frame);
        tlb_.invalidate(pid, vpn);
    }
    stats_.frees++;
    resp.status = Status::kOk;
    return cfg_.slow_path.valloc_base / 2 +
           cfg_.slow_path.vfree_per_page * res->vpns.size();
}

void
CBoard::slowPathRequest(std::uint32_t slot)
{
    const Inflight &inflight = inflight_[slot];
    const RequestMsg &req = *inflight.req;

    // Ingress + MAT + crossing to the ARM; one polling worker at a
    // time (the dedicated polling core hands tasks to workers, §5).
    Tick t = parseStage(ingress()) + cfg_.slow_path.interconnect_crossing;
    t = std::max(t, std::max(arm_free_, gate_open_));

    auto resp = resp_pool_.acquire();
    if (inflight.suppressed) {
        // Replay: the original executed and succeeded (T4).
        resp->status = Status::kOk;
        resp->value = inflight.value;
    } else {
        t += req.type == MsgType::kAlloc
                 ? slowPathAlloc(req.pid, req.size, req.perm, *resp,
                                 req.populate)
                 : slowPathFree(req.pid, req.addr, *resp);
    }
    arm_free_ = t;
    // Crossing back to the FPGA's respond stage.
    complete(slot, t + cfg_.slow_path.interconnect_crossing,
             std::move(resp));
}

} // namespace clio
