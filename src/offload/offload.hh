/**
 * @file
 * Extend-path computation offloading framework (§4.6).
 *
 * An Offload is application logic deployed on the CBoard (FPGA or ARM
 * in the paper). Each offload gets its own global PID and remote
 * virtual address space and accesses on-board memory through the same
 * virtual memory interface CN applications use — that is the paper's
 * key ergonomic claim. The VmView passed to an invocation provides
 * that interface and accounts the modeled device time the offload
 * spends, split by component (translations, DRAM accesses, compute
 * cycles, ARM control crossings) so the latency-breakdown and energy
 * models can attribute offload time.
 *
 * Offloads are deployed through the OffloadRegistry (registry.hh)
 * with a per-offload descriptor (descriptor.hh) and dispatched by the
 * OffloadRuntime (runtime.hh), which also executes chained plans
 * (chain.hh) and schedules a configurable number of offload engines
 * (engine.hh).
 */

#ifndef CLIO_OFFLOAD_OFFLOAD_HH
#define CLIO_OFFLOAD_OFFLOAD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "offload/errc.hh"
#include "pagetable/pte.hh"
#include "proto/messages.hh"
#include "sim/types.hh"

namespace clio {

class CBoard;

/**
 * Modeled device time of one offload invocation, by component:
 *  - translate: TLB lookups + page-table bucket fetches (TLB misses);
 *  - dram: data movement through the board DRAM (incl. queueing on
 *    the shared DRAM-bandwidth watermark);
 *  - compute: chargeCycles() FPGA processing;
 *  - control: ARM slow-path work (vm.alloc/vm.free) + interconnect
 *    crossings.
 */
struct OffloadCost
{
    Tick translate = 0;
    Tick dram = 0;
    Tick compute = 0;
    Tick control = 0;

    Tick total() const { return translate + dram + compute + control; }

    OffloadCost &
    operator+=(const OffloadCost &o)
    {
        translate += o.translate;
        dram += o.dram;
        compute += o.compute;
        control += o.control;
        return *this;
    }
};

/**
 * Virtual-memory window an offload invocation runs against.
 *
 * All accesses are in the offload's own RAS (or a CN process' RAS when
 * the offload was registered to share one, like Clio-DF's operators,
 * §6). Accesses translate through the board's TLB/page table and touch
 * the board DRAM, accumulating modeled time in cost().
 */
class OffloadVm
{
  public:
    /**
     * @param start_at logical tick the invocation begins (engine grant
     *        for dispatched calls; a chain stage starts where the
     *        previous stage finished, so its DRAM accesses queue
     *        behind the board's shared watermarks from that point —
     *        not from eq.now(), which would re-bill earlier stages'
     *        occupancy). Defaults to the board's current time.
     */
    OffloadVm(CBoard &board, ProcId pid);
    OffloadVm(CBoard &board, ProcId pid, Tick start_at);

    /** Allocate remote virtual memory (slow-path, on-board: no
     * network round trip). Returns 0 on failure. */
    VirtAddr alloc(std::uint64_t size, std::uint8_t perm = kPermReadWrite);

    /** Free an allocation made with alloc(). */
    bool free(VirtAddr addr);

    /** Read bytes from the offload's RAS; false on translation or
     * permission failure. */
    bool read(VirtAddr addr, void *dst, std::uint64_t len);

    /** Write bytes into the offload's RAS. */
    bool write(VirtAddr addr, const void *src, std::uint64_t len);

    /** @{ Typed convenience accessors. */
    std::optional<std::uint64_t> read64(VirtAddr addr);
    bool write64(VirtAddr addr, std::uint64_t value);
    /** @} */

    /** Charge `cycles` of FPGA compute (e.g. per-element processing). */
    void chargeCycles(std::uint64_t cycles);

    /** Modeled device time consumed so far by this invocation. */
    Tick cost() const { return cost_.total(); }

    /** The same time, attributed per component. */
    const OffloadCost &costSplit() const { return cost_; }

    ProcId pid() const { return pid_; }

  private:
    friend class CBoard;
    /** Shared body of read() and write(). */
    bool access(VirtAddr addr, void *buf, std::uint64_t len, bool is_write);

    CBoard &board_;
    ProcId pid_;
    /** Logical start tick; the invocation clock is start_at_ +
     * cost_.total(). */
    Tick start_at_;
    OffloadCost cost_;
};

/** Result of one offload invocation. */
struct OffloadResult
{
    Status status = Status::kOk;
    std::vector<std::uint8_t> data;
    std::uint64_t value = 0;
    /** Offload-defined error code (OffloadErrc or >= kAppBase);
     * meaningful when status != kOk. */
    std::uint32_t err_code = 0;
    /** Human-readable error detail, carried to the CN as the reply's
     * payload bytes when the call failed. */
    std::string err_msg;
};

/** Failed OffloadResult carrying a reserved runtime error code. */
inline OffloadResult
offloadError(OffloadErrc errc, std::string msg,
             Status status = Status::kOffloadError)
{
    OffloadResult res;
    res.status = status;
    res.err_code = static_cast<std::uint32_t>(errc);
    res.err_msg = std::move(msg);
    return res;
}

/** Interface implemented by application offloads (radix-tree pointer
 * chaser, Clio-KV, Clio-MV, Clio-DF operators, ...). */
class Offload
{
  public:
    virtual ~Offload() = default;

    /** One-time setup when deployed on a board (allocate and
     * initialize the offload's data structures in its RAS). */
    virtual void init(OffloadVm &vm) { (void)vm; }

    /**
     * Handle one invocation.
     * @param vm  the offload's virtual memory view (cost accumulator).
     * @param arg opaque argument bytes from the client.
     */
    virtual OffloadResult invoke(OffloadVm &vm,
                                 const std::vector<std::uint8_t> &arg) = 0;
};

} // namespace clio

#endif // CLIO_OFFLOAD_OFFLOAD_HH
