#include "offload/runtime.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace clio {

namespace {

/** Look up offload `id`; when none is registered, fill `result` with
 * the kUnregistered error and return null. */
OffloadEntry *
findOrFail(OffloadRegistry &registry, std::uint32_t id, OffloadResult &result)
{
    OffloadEntry *entry = registry.find(id);
    if (!entry)
        result = offloadError(OffloadErrc::kUnregistered,
                              "no offload registered under id " +
                                  std::to_string(id));
    return entry;
}

} // namespace

OffloadRuntime::OffloadRuntime(const OffloadConfig &cfg, Tick cycle)
    : cfg_(cfg), cycle_(cycle), scheduler_(cfg.engines)
{
}

ProcId
OffloadRuntime::deploy(CBoard &board, OffloadDescriptor desc,
                       std::shared_ptr<Offload> offload)
{
    const std::uint32_t id = desc.id;
    const ProcId pid = registry_.deploy(std::move(desc), std::move(offload));
    OffloadVm vm(board, pid);
    registry_.find(id)->offload->init(vm);
    return pid;
}

void
OffloadRuntime::deployShared(CBoard &board, OffloadDescriptor desc,
                             std::shared_ptr<Offload> offload, ProcId pid)
{
    const std::uint32_t id = desc.id;
    registry_.deployShared(std::move(desc), std::move(offload), pid);
    OffloadVm vm(board, pid);
    registry_.find(id)->offload->init(vm);
}

Tick
OffloadRuntime::dispatchOne(CBoard &board, OffloadEntry &entry,
                            const std::vector<std::uint8_t> &arg, Tick start,
                            OffloadResult &result, bool as_chain_stage,
                            OffloadCost *split)
{
    if (as_chain_stage)
        entry.stats.chain_stages++;
    else
        entry.stats.calls++;
    if (entry.desc.arg_bytes != 0 && arg.size() != entry.desc.arg_bytes) {
        result = offloadError(
            OffloadErrc::kBadArgument,
            entry.desc.name + ": argument is " +
                std::to_string(arg.size()) + " bytes, schema wants " +
                std::to_string(entry.desc.arg_bytes));
        entry.stats.errors++;
        return 0;
    }
    OffloadVm vm(board, entry.pid, start);
    result = entry.offload->invoke(vm, arg);
    if (result.status != Status::kOk)
        entry.stats.errors++;
    entry.stats.cost += vm.costSplit();
    if (split)
        *split = vm.costSplit();
    return vm.cost();
}

Tick
OffloadRuntime::runSingle(CBoard &board, std::uint32_t id,
                          const std::vector<std::uint8_t> &arg, Tick ready,
                          OffloadResult &result)
{
    OffloadEntry *entry = findOrFail(registry_, id, result);
    if (!entry)
        return ready;
    const EngineScheduler::Grant grant = scheduler_.admit(ready);
    Tick done = grant.start + cfg_.dispatch_cycles * cycle_;
    done += dispatchOne(board, *entry, arg, done, result, false);
    scheduler_.complete(grant, done);
    return done;
}

Tick
OffloadRuntime::runChain(CBoard &board, const RequestMsg &req, Tick ready,
                         OffloadResult &result,
                         std::vector<OffloadStageReply> *stage_replies)
{
    if (req.chain.size() > cfg_.max_chain_depth) {
        result = offloadError(OffloadErrc::kChainTooDeep,
                              "chain depth " +
                                  std::to_string(req.chain.size()) +
                                  " exceeds limit " +
                                  std::to_string(cfg_.max_chain_depth));
        return ready;
    }

    const EngineScheduler::Grant grant = scheduler_.admit(ready);
    Tick done = grant.start;
    std::vector<OffloadStageReply> replies;
    replies.reserve(req.chain.size());

    for (std::size_t i = 0; i < req.chain.size(); i++) {
        const OffloadChainStage &stage = req.chain[i];
        done += cfg_.dispatch_cycles * cycle_;

        OffloadResult stage_result;
        OffloadEntry *entry =
            findOrFail(registry_, stage.offload_id, stage_result);
        if (entry) {
            // Patch the stage's argument template from earlier replies.
            std::vector<std::uint8_t> arg = stage.arg;
            bool bind_ok = true;
            for (const OffloadChainBind &bind : stage.binds) {
                const std::size_t src =
                    bind.src_stage == kOffloadPrevStage
                        ? i - 1 // i == 0 wraps past replies.size(): caught
                        : bind.src_stage;
                if (src >= replies.size() ||
                    std::uint64_t(bind.dst_offset) + bind.len > arg.size()) {
                    bind_ok = false;
                    break;
                }
                const OffloadStageReply &from = replies[src];
                if (bind.from_value) {
                    std::uint8_t value_bytes[8];
                    std::memcpy(value_bytes, &from.value, 8);
                    if (std::uint64_t(bind.src_offset) + bind.len > 8) {
                        bind_ok = false;
                        break;
                    }
                    std::memcpy(arg.data() + bind.dst_offset,
                                value_bytes + bind.src_offset, bind.len);
                } else {
                    if (std::uint64_t(bind.src_offset) + bind.len >
                        from.data.size()) {
                        bind_ok = false;
                        break;
                    }
                    std::memcpy(arg.data() + bind.dst_offset,
                                from.data.data() + bind.src_offset,
                                bind.len);
                }
            }
            if (!bind_ok) {
                stage_result = offloadError(
                    OffloadErrc::kBadChainBind,
                    entry->desc.name + ": bind out of range");
                entry->stats.errors++;
            } else {
                done += dispatchOne(board, *entry, arg, done, stage_result,
                                    true);
            }
        }

        OffloadStageReply reply;
        reply.status = stage_result.status;
        reply.err_code = stage_result.err_code;
        reply.value = stage_result.value;
        reply.data = stage_result.data;
        replies.push_back(std::move(reply));

        if (stage_result.status != Status::kOk) {
            // Abort: surface the failing stage's error as the chain's.
            result = std::move(stage_result);
            result.err_msg =
                "stage " + std::to_string(i) + ": " + result.err_msg;
            break;
        }
        result = std::move(stage_result);
        if (stage.stop_on_zero_value && result.value == 0)
            break; // successful early exit (pointer-chase miss)
    }

    if (req.chain.empty())
        result = offloadError(OffloadErrc::kBadArgument, "empty chain");

    scheduler_.complete(grant, done);
    if (stage_replies && req.chain_per_stage)
        *stage_replies = std::move(replies);
    return done;
}

Tick
OffloadRuntime::invokeLocal(CBoard &board, std::uint32_t id,
                            const std::vector<std::uint8_t> &arg, Tick start,
                            OffloadResult &result, OffloadCost *split)
{
    OffloadEntry *entry = findOrFail(registry_, id, result);
    return entry ? dispatchOne(board, *entry, arg, start, result, false, split)
                 : 0;
}

void
OffloadRuntime::reinit(CBoard &board)
{
    scheduler_.reset();
    // std::map iterates in sorted id order: deterministic re-deploy.
    for (auto &[id, entry] : registry_.entries()) {
        OffloadVm vm(board, entry.pid);
        entry.offload->init(vm);
    }
}

} // namespace clio
