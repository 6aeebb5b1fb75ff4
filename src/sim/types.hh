/**
 * @file
 * Fundamental types and unit constants shared by every Clio module.
 *
 * Simulated time is kept in integer picoseconds ("ticks"), which is fine
 * grained enough to express a single 2 GHz ASIC cycle (500 ps) without
 * rounding while still covering >200 days of simulated time in 64 bits.
 */

#ifndef CLIO_SIM_TYPES_HH
#define CLIO_SIM_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace clio {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** @{ Time unit constants, all expressed in ticks (picoseconds). */
constexpr Tick kPicosecond = 1;
constexpr Tick kNanosecond = 1000 * kPicosecond;
constexpr Tick kMicrosecond = 1000 * kNanosecond;
constexpr Tick kMillisecond = 1000 * kMicrosecond;
constexpr Tick kSecond = 1000 * kMillisecond;
/** @} */

/** Largest representable tick; used as "never" for timeouts. */
constexpr Tick kTickMax = ~Tick(0);

/** @{ Size constants in bytes. */
constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;
constexpr std::uint64_t GiB = 1024 * MiB;
constexpr std::uint64_t TiB = 1024 * GiB;
/** @} */

/** Remote virtual address inside a process' remote address space (RAS). */
using VirtAddr = std::uint64_t;

/** Physical address inside one memory node's on-board DRAM. */
using PhysAddr = std::uint64_t;

/** Global process identifier, unique across all compute nodes (§3.1). */
using ProcId = std::uint32_t;

/** Node identifiers within a cluster. */
using NodeId = std::uint32_t;

/** "No node": outside the node-id range (ids count up from 0, and MN 0
 * is node 0), so it never names a real node. */
constexpr NodeId kNoNode = ~NodeId{0};

/** Rack (leaf/ToR switch) identifier within a multi-rack cluster. */
using RackId = std::uint32_t;

/** Request identifier assigned by CLib; a retry gets a fresh one (§4.5). */
using ReqId = std::uint64_t;

/**
 * Convert ticks to double seconds (for reporting only; simulation logic
 * must stay in integer ticks).
 */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/** Convert ticks to double microseconds (reporting only). */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/** Convert ticks to double nanoseconds (reporting only). */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

/**
 * Bits-per-second rate converted to ticks per byte, rounding up so that
 * modeled serialization never undershoots the line rate.
 */
constexpr Tick
ticksPerByte(std::uint64_t bits_per_second)
{
    // ticks/byte = (8 bits/byte) * (1e12 ticks/s) / (bits/s)
    return (8 * kSecond + bits_per_second - 1) / bits_per_second;
}

} // namespace clio

#endif // CLIO_SIM_TYPES_HH
