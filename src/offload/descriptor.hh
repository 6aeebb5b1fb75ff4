/**
 * @file
 * Per-offload deployment descriptor (extend path, §4.6).
 *
 * Registering an offload means synthesizing its logic into the
 * CBoard's FPGA fabric, so each deployment carries a descriptor: the
 * id/name the MAT dispatches on, the argument/reply schemas the
 * runtime enforces at dispatch (typed rcall), the LUT/BRAM footprint
 * the Fig. 22 resource model charges per deployed offload, and a
 * cycles-per-element cost model documenting how invocation compute
 * scales (the invoke() implementations charge it via
 * OffloadVm::chargeCycles).
 *
 * Every deploy (CBoard::registerOffload / registerOffloadShared) takes
 * a descriptor. Offloads with a schema ship their own static
 * descriptor(id); an ad-hoc offload passes `{.id = N}` and gets the
 * defaults below. Every field has a default member initializer, so a
 * designated initializer may name any subset.
 */

#ifndef CLIO_OFFLOAD_DESCRIPTOR_HH
#define CLIO_OFFLOAD_DESCRIPTOR_HH

#include <cstdint>
#include <string>

namespace clio {

/** Deployment metadata of one registered offload. */
struct OffloadDescriptor
{
    /** Dispatch id carried in RequestMsg::offload_id. */
    std::uint32_t id = 0;
    /** Human-readable module name (stats, Fig. 22 rows, bench JSON). */
    std::string name = {};
    /** Fixed argument schema size in bytes; 0 = variable-length args
     * (the offload validates internally). Enforced at dispatch: a
     * mismatched rcall fails with OffloadErrc::kBadArgument without
     * invoking the offload. */
    std::uint32_t arg_bytes = 0;
    /** Expected reply payload size (CN incast-window sizing hint). */
    std::uint64_t reply_bytes_hint = 256;
    /** Synthesized logic footprint, replicated into each offload
     * engine (LUTs per engine instance). */
    double lut = 2000.0;
    /** On-chip state (BRAM bytes), one copy shared across engines. */
    double bram_bytes = 4096.0;
    /** @{ Compute cost model: cycles charged per invocation and per
     * element processed. Documentation + energy attribution; the
     * invoke() implementations remain the source of truth. */
    std::uint64_t cycles_per_call = 0;
    std::uint64_t cycles_per_element = 1;
    /** @} */
};

} // namespace clio

#endif // CLIO_OFFLOAD_DESCRIPTOR_HH
