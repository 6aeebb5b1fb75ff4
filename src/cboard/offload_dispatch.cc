#include "cboard/cboard.hh"

#include <algorithm>

namespace clio {

ProcId
CBoard::registerOffload(OffloadDescriptor desc,
                        std::shared_ptr<Offload> offload)
{
    // Deployment-time initialization happens inside the runtime (not
    // on the request path).
    return offload_rt_.deploy(*this, std::move(desc), std::move(offload));
}

void
CBoard::registerOffloadShared(OffloadDescriptor desc,
                              std::shared_ptr<Offload> offload, ProcId pid)
{
    offload_rt_.deployShared(*this, std::move(desc), std::move(offload),
                             pid);
}

void
CBoard::extendPathPacket(const Packet &pkt, std::uint32_t slot)
{
    Inflight &inflight = inflight_[slot];
    inflight.done = std::max(inflight.done,
                             admitPipeline(ingress(), pkt.wire_bytes));
    if (!inflight.parts.complete())
        return;

    const auto &req = *inflight.req;
    auto resp = resp_pool_.acquire();
    Tick done = std::max(inflight.done, gate_open_);

    stats_.offload_calls++;
    if (!req.chain.empty())
        stats_.offload_chains++;

    // Dedup for offloads with side effects (treated like atomics). The
    // check runs here, where the call executes, not at its first part:
    // a multi-part retry arriving while its original is still in
    // flight would otherwise execute twice.
    if (auto cached = dedup_.find(req.orig_req_id)) {
        dedup_.noteSuppressed();
        inflight.suppressed = true;
        resp->status = Status::kOk;
        resp->value = *cached;
    } else {
        OffloadResult result;
        if (!req.chain.empty()) {
            std::vector<OffloadStageReply> stage_replies;
            done = offload_rt_.runChain(*this, req, done, result,
                                        &stage_replies);
            resp->stages = std::move(stage_replies);
        } else {
            done = offload_rt_.runSingle(*this, req.offload_id,
                                         req.offload_arg, done, result);
        }
        resp->status = result.status;
        resp->value = result.value;
        resp->err_code = result.err_code;
        if (result.status == Status::kOk) {
            resp->data = std::move(result.data);
        } else {
            // A failed call carries the offload-defined message bytes
            // as its payload (satellite: errors name themselves).
            resp->data.assign(result.err_msg.begin(),
                              result.err_msg.end());
        }
    }
    complete(slot, done, std::move(resp));
}

Tick
CBoard::invokeOffloadLocal(std::uint32_t offload_id,
                           const std::vector<std::uint8_t> &arg,
                           OffloadResult &result, OffloadCost *split)
{
    stats_.offload_calls++;
    return offload_rt_.invokeLocal(*this, offload_id, arg, eq_.now(), result,
                                   split);
}

OffloadVm::OffloadVm(CBoard &board, ProcId pid)
    : OffloadVm(board, pid, board.eq_.now())
{
}

OffloadVm::OffloadVm(CBoard &board, ProcId pid, Tick start_at)
    : board_(board), pid_(pid), start_at_(start_at)
{
}

VirtAddr
OffloadVm::alloc(std::uint64_t size, std::uint8_t perm)
{
    ResponseMsg resp;
    const Tick cost = board_.slowPathAlloc(pid_, size, perm, resp);
    // Control-path hop to the ARM and back (§4.6: offload control
    // paths run on the ARM, data paths on the FPGA).
    cost_.control += cost + board_.cfg_.slow_path.interconnect_crossing;
    return resp.status == Status::kOk ? resp.value : 0;
}

bool
OffloadVm::free(VirtAddr addr)
{
    ResponseMsg resp;
    const Tick cost = board_.slowPathFree(pid_, addr, resp);
    cost_.control += cost + board_.cfg_.slow_path.interconnect_crossing;
    return resp.status == Status::kOk;
}

bool
OffloadVm::access(VirtAddr addr, void *buf, std::uint64_t len,
                  bool is_write)
{
    // The invocation's logical clock runs `cost_` ahead of its start
    // tick; resources (DRAM occupancy) are shared in absolute time.
    // vmAccess attributes the access' time per component; the deltas
    // sum to done - start, so the invariant cost_.total() ==
    // done - start_at_ is preserved exactly.
    const Tick start = start_at_ + cost_.total();
    OffloadCost delta;
    if (board_.vmAccess(pid_, addr, buf, len, is_write, start, &delta) ==
        kTickMax)
        return false; // fault: no time charged (existing semantics)
    cost_ += delta;
    return true;
}

bool
OffloadVm::read(VirtAddr addr, void *dst, std::uint64_t len)
{
    return access(addr, dst, len, false);
}

bool
OffloadVm::write(VirtAddr addr, const void *src, std::uint64_t len)
{
    // A write only reads from the buffer.
    return access(addr, const_cast<void *>(src), len, true);
}

std::optional<std::uint64_t>
OffloadVm::read64(VirtAddr addr)
{
    std::uint64_t value = 0;
    if (!read(addr, &value, sizeof(value)))
        return std::nullopt;
    return value;
}

bool
OffloadVm::write64(VirtAddr addr, std::uint64_t value)
{
    return write(addr, &value, sizeof(value));
}

void
OffloadVm::chargeCycles(std::uint64_t cycles)
{
    cost_.compute += cycles * board_.cfg_.fast_path.cycle;
}

} // namespace clio
