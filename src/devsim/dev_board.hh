/**
 * @file
 * Developer simulator (§5): "a simple software simulator of CBoard
 * which works with CLib for developers to test their code without the
 * need to run an actual CBoard."
 *
 * DevBoard wraps one CBoard without any network: calls are
 * synchronous, functional, and instantaneous from the caller's
 * perspective, while still exercising the real page table, allocator,
 * permission checks, fault handler, atomics, and offload framework.
 * Application and offload code developed against DevBoard runs
 * unchanged on the full simulated cluster (and, in the paper's world,
 * on the hardware).
 */

#ifndef CLIO_DEVSIM_DEV_BOARD_HH
#define CLIO_DEVSIM_DEV_BOARD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cboard/cboard.hh"
#include "clib/result.hh"
#include "net/network.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace clio {

/** A process handle on the DevBoard. */
class DevProcess;

/** In-process CBoard simulator for application development. */
class DevBoard
{
  public:
    explicit DevBoard(const ModelConfig &cfg = ModelConfig::prototype(),
                      std::uint64_t phys_bytes = 0);

    /** Open a new "process" (fresh global PID / address space). */
    DevProcess openProcess();

    /** Invoke an offload synchronously (deploy it through board()). */
    Status
    offloadCall(std::uint32_t id, const std::vector<std::uint8_t> &arg,
                std::vector<std::uint8_t> *result = nullptr,
                std::uint64_t *value = nullptr)
    {
        OffloadResult res;
        board_->invokeOffloadLocal(id, arg, res);
        if (result)
            *result = std::move(res.data);
        if (value)
            *value = res.value;
        return res.status;
    }

    CBoard &board() { return *board_; }

  private:
    friend class DevProcess;
    EventQueue eq_;
    Network net_;
    std::unique_ptr<CBoard> board_;
    ProcId next_pid_ = 1;
};

/** Synchronous, functional view of one process' RAS on a DevBoard. */
class DevProcess
{
  public:
    DevProcess(DevBoard &dev, ProcId pid) : dev_(dev), pid_(pid) {}

    ProcId pid() const { return pid_; }

    /** malloc-like remote allocation (same typed result shape as
     * ClioClient::ralloc, so app code moves between the two). */
    Result<VirtAddr>
    ralloc(std::uint64_t size, std::uint8_t perm = kPermReadWrite)
    {
        ResponseMsg resp;
        dev_.board_->slowPathAlloc(pid_, size, perm, resp);
        if (resp.status != Status::kOk)
            return resp.status;
        return resp.value;
    }

    Status
    rfree(VirtAddr addr)
    {
        ResponseMsg resp;
        dev_.board_->slowPathFree(pid_, addr, resp);
        return resp.status;
    }

    Status
    rwrite(VirtAddr addr, const void *src, std::uint64_t len)
    {
        RequestMsg req = makeReq(MsgType::kWrite, addr, len);
        req.data.assign(static_cast<const std::uint8_t *>(src),
                        static_cast<const std::uint8_t *>(src) + len);
        ResponseMsg resp;
        dev_.board_->serviceFastPath(req, dev_.eq_.now(), resp);
        return resp.status;
    }

    Status
    rread(VirtAddr addr, void *dst, std::uint64_t len)
    {
        RequestMsg req = makeReq(MsgType::kRead, addr, len);
        ResponseMsg resp;
        dev_.board_->serviceFastPath(req, dev_.eq_.now(), resp);
        if (resp.status == Status::kOk)
            std::copy(resp.data.begin(), resp.data.end(),
                      static_cast<std::uint8_t *>(dst));
        return resp.status;
    }

  private:
    RequestMsg
    makeReq(MsgType type, VirtAddr addr, std::uint64_t len)
    {
        RequestMsg req;
        req.type = type;
        req.pid = pid_;
        req.addr = addr;
        req.size = len;
        req.req_id = next_req_++;
        req.orig_req_id = req.req_id;
        return req;
    }

    DevBoard &dev_;
    ProcId pid_;
    ReqId next_req_ = 1;
};

} // namespace clio

#endif // CLIO_DEVSIM_DEV_BOARD_HH
