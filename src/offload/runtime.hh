/**
 * @file
 * MN-resident offload runtime (extend path, §4.6).
 *
 * The runtime is the CBoard's extend-path brain: it owns the typed
 * OffloadRegistry, arbitrates the configurable offload engines through
 * the EngineScheduler, enforces descriptor argument schemas at
 * dispatch, and executes chained plans — sequences of stages whose
 * arguments are patched from earlier stages' replies entirely on the
 * MN, so a data-dependent pipeline pays one network round trip instead
 * of one per stage.
 *
 * The runtime survives board restarts (deployments are durable
 * configuration, like MAT rules); reinit() re-runs every offload's
 * init() against the freshly emptied board in sorted id order and
 * clears the engine occupancy watermarks.
 */

#ifndef CLIO_OFFLOAD_RUNTIME_HH
#define CLIO_OFFLOAD_RUNTIME_HH

#include <cstdint>
#include <vector>

#include "offload/chain.hh"
#include "offload/engine.hh"
#include "offload/offload.hh"
#include "offload/registry.hh"
#include "sim/config.hh"

namespace clio {

class CBoard;

/** Extend-path dispatcher of one CBoard. */
class OffloadRuntime
{
  public:
    OffloadRuntime(const OffloadConfig &cfg, Tick cycle);

    /** @{ Deployment (thin wrappers over the registry that also run
     * the offload's init() on `board`). */
    ProcId deploy(CBoard &board, OffloadDescriptor desc,
                  std::shared_ptr<Offload> offload);
    void deployShared(CBoard &board, OffloadDescriptor desc,
                      std::shared_ptr<Offload> offload, ProcId pid);
    /** @} */

    /**
     * Dispatch one single (non-chained) invocation that is ready at
     * `ready`: engine admission, schema check, invocation, stats.
     * @return the tick the engine releases (modeled completion).
     */
    Tick runSingle(CBoard &board, std::uint32_t id,
                   const std::vector<std::uint8_t> &arg, Tick ready,
                   OffloadResult &result);

    /**
     * Execute a chained plan (req.chain) that is ready at `ready`. The
     * whole chain occupies ONE engine for its duration; stages run
     * back to back with bind patching between them. On a stage
     * failure the chain aborts and `result` carries that stage's
     * error (err_msg prefixed with the stage index). When
     * req.chain_per_stage, `stage_replies` receives every executed
     * stage's reply.
     * @return the tick the engine releases.
     */
    Tick runChain(CBoard &board, const RequestMsg &req, Tick ready,
                  OffloadResult &result,
                  std::vector<OffloadStageReply> *stage_replies);

    /** Invoke without engine admission or dispatch overhead — the
     * developer-simulator path (§5) and offload unit tests.
     * @param start the board's current tick.
     * @param split when non-null, receives the invocation's cost split.
     * @return modeled device time of the invocation. */
    Tick invokeLocal(CBoard &board, std::uint32_t id,
                     const std::vector<std::uint8_t> &arg, Tick start,
                     OffloadResult &result, OffloadCost *split = nullptr);

    /** Board restart: re-run every offload's init() against the empty
     * board in sorted id order; engine watermarks reset. */
    void reinit(CBoard &board);

    OffloadRegistry &registry() { return registry_; }
    const OffloadRegistry &registry() const { return registry_; }
    EngineScheduler &scheduler() { return scheduler_; }
    const EngineScheduler &scheduler() const { return scheduler_; }
    const OffloadConfig &config() const { return cfg_; }

  private:
    /** Schema check + invoke + per-entry stats; returns the modeled
     * device time (schema rejections cost nothing). `start` is the
     * tick the invocation begins — the VM's accesses queue behind the
     * board's shared watermarks from there, so back-to-back chain
     * stages don't re-bill each other's DRAM occupancy. When non-null,
     * `split` receives an invoked call's cost split. */
    Tick dispatchOne(CBoard &board, OffloadEntry &entry,
                     const std::vector<std::uint8_t> &arg, Tick start,
                     OffloadResult &result, bool as_chain_stage,
                     OffloadCost *split = nullptr);

    OffloadConfig cfg_;
    /** Fast-path cycle period (dispatch_cycles -> ticks). */
    Tick cycle_;
    OffloadRegistry registry_;
    EngineScheduler scheduler_;
};

} // namespace clio

#endif // CLIO_OFFLOAD_RUNTIME_HH
