/**
 * @file
 * Linearizability checking for chaos-test completion histories.
 *
 * The chaos tier records every operation a client issued against a
 * replicated register (invocation tick, completion tick, kind, value,
 * status) and replays the history against a sequential register
 * specification, searching for a legal linearization (Wing & Gong
 * style, with memoization on the (done-set, register-value) state).
 *
 * Failure semantics match the transport: an operation that completed
 * kOk took effect atomically between its invocation and completion; a
 * FAILED write (timeout — the MN may have died mid-flight) is
 * ambiguous: it may have taken effect at any point after its
 * invocation, or never. Failed reads returned nothing and are dropped
 * before checking.
 */

#ifndef CLIO_CHAOS_LINEARIZE_HH
#define CLIO_CHAOS_LINEARIZE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** One operation of a recorded history. */
struct HistOp
{
    /** Register identity; the checker is per-key. */
    std::uint64_t key = 0;
    Tick invoked = 0;
    /** Completion tick; kTickMax for a failed (ambiguous) write. */
    Tick completed = 0;
    bool is_write = false;
    /** Value written, or value returned by a successful read. */
    std::uint64_t value = 0;
    /** Whether the operation completed kOk. */
    bool ok = true;

    bool operator==(const HistOp &) const = default;
};

/** Verdict of a linearizability check. */
struct LinearizeReport
{
    bool linearizable = true;
    /** First key that failed (when !linearizable). */
    std::uint64_t key = 0;
    /** Total operations checked (after dropping failed reads). */
    std::size_t ops = 0;
};

/**
 * Check that `history` is linearizable per key under sequential
 * register semantics (initial value 0). Write values must be unique
 * per key for the search to be sound. Failed reads are dropped; a
 * failed write is treated as possibly-applied-or-discarded with an
 * unbounded completion time. At most 64 ops per key (search state is
 * a bitmask).
 */
LinearizeReport checkLinearizable(std::vector<HistOp> history);

} // namespace clio

#endif // CLIO_CHAOS_LINEARIZE_HH
