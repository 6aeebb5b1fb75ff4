/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue instance drives one simulated cluster. Components
 * schedule callbacks at absolute or relative simulated times; the queue
 * executes them in (time, insertion order) order, so same-tick events are
 * deterministic FIFO.
 *
 * schedule() builds the closure in place in an arena cell (an
 * EventCallback that never moves) and queues a trivially copyable
 * 24-byte record (when, seq, cell). It returns an EventId, and
 * cancel(id) takes a pending event out of the queue: its closure is
 * destroyed, its record removed, and it never runs nor counts in
 * executed(). Cancellation exists for retry timeouts: nearly every one
 * is dead as soon as its response lands. Left to fire as no-ops, the
 * 200 ms slow-path ones kept about 229k closures pending on the
 * benchmark suite's kv_ycsb_b workload; cancelling them cut its peak
 * RSS from 170 to 122 MB. An id names one event once: cancelling an
 * event that already ran, is running (a self-cancel), or was cancelled
 * is a no-op, even after its arena cell took a new event.
 *
 * Two engines order the same records, selectable per queue:
 *
 *  - kTimingWheel (default): a hashed timing wheel of 4096 slots of
 *    2^15 ticks (~134 us span), sized so data-path delays — NIC/switch
 *    hops, RTTs, even the data-path retry timeout — land in their
 *    final slot with a single placement. Every event beyond the span
 *    (the 200 ms slow-path timeouts, mostly cancelled long before they
 *    are due) waits in a far list, which moves into the wheel when the
 *    cursor reaches the slot of its earliest event. Slot occupancy is
 *    a 64-word bitmap plus a one-word summary, so finding the next
 *    occupied slot is two bit scans. Slot vectors recycle their
 *    capacity, so steady-state scheduling performs no allocation.
 *    O(1) schedule, amortized O(1) pop. cancel() finds the record
 *    where its due time put it — the staged band, its wheel slot, or
 *    the far list — with a scan of that one place.
 *
 *  - kBinaryHeap: the reference implementation — a binary heap of the
 *    same records, kept as the oracle for differential tests.
 *    cancel() removes the record by a linear search and a re-heapify.
 *
 * Both order events identically, byte-for-byte reproducibly.
 */

#ifndef CLIO_SIM_EVENT_QUEUE_HH
#define CLIO_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace clio {

/** Which event-queue engine a queue (or a whole cluster) runs on. */
enum class EventQueueImpl : std::uint8_t
{
    /** Wheel, unless the CLIO_EVENT_QUEUE env var says "heap". */
    kDefault = 0,
    kTimingWheel,
    kBinaryHeap,
};

/** Names one scheduled event for cancel(); kNoEvent names none. */
using EventId = std::uint64_t;
constexpr EventId kNoEvent = 0;

/** Minimal event-driven simulation kernel (one per simulated cluster). */
class EventQueue
{
  public:
    explicit EventQueue(EventQueueImpl impl = EventQueueImpl::kDefault);
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The engine this queue resolved to (never kDefault). */
    EventQueueImpl impl() const { return impl_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule a callback at absolute tick `when` (>= now).
     * @return the event's id, for cancel(). */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        clio_assert(when >= now_,
                    "scheduling into the past: when=%llu now=%llu",
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(now_));
        // Construct the closure directly in its arena cell: it is
        // built exactly once and never moves until destruction.
        const std::uint32_t idx = arenaAlloc();
        ArenaCell &cell = arenaCell(idx);
        cell.cb.emplace(std::forward<F>(fn));
        cell.when = when;
        push(Record{when, next_seq_++, idx});
        return (EventId{cell.gen} << 32) | (idx + 1);
    }

    /** Schedule a callback `delay` ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Take a pending event out of the queue: it never runs and does
     * not count in executed(). A no-op for kNoEvent and for an event
     * that already ran, is running, or was cancelled.
     * @retval true the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending events. */
    std::size_t pending() const { return count_; }

    /** True if no events remain. */
    bool empty() const { return count_ == 0; }

    /**
     * Execute the earliest pending event, advancing simulated time.
     * @retval true an event was executed, false if the queue was empty.
     */
    bool runOne();

    /** Run events until the queue drains or `max_events` were executed. */
    void runAll(std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * Run events until the predicate turns true (checked after every
     * event), the queue drains, or `max_events` were executed.
     * @retval true the predicate was satisfied.
     */
    bool runUntil(const std::function<bool()> &pred,
                  std::uint64_t max_events = ~std::uint64_t(0));

    /** Run all events scheduled at or before tick `t`, then set now=t. */
    void runUntilTime(Tick t);

    /** Total events executed since construction (for sanity checks). */
    std::uint64_t executed() const { return executed_; }

  private:
    /**
     * A pending event. The closure itself lives in the arena (`cell`
     * names it), so the record is a trivially copyable 24 bytes that
     * both engines order by (when, seq) and copy freely. A cell holds
     * at most one pending event, so `cell` also names the record that
     * cancel() removes.
     */
    struct Record
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t cell;
    };

    /**
     * One arena cell: an event's closure, its due time (where cancel()
     * looks for its record) and a generation that names the event in
     * its id, (gen << 32) | (cell + 1), which is never kNoEvent. The
     * generation moves on when the event starts running or is
     * cancelled, so every older id for the cell goes stale; a holder
     * drops an id once its event is over, as it would alias only after
     * 2^32 reuses of the cell.
     */
    struct ArenaCell
    {
        EventCallback cb;
        Tick when = 0;
        std::uint32_t gen = 0;
    };

    static constexpr std::uint32_t kArenaChunkLog = 10;
    static constexpr std::uint32_t kArenaChunk = 1u << kArenaChunkLog;

    // ------------------------------------------------------------
    // Timing wheel: a slot covers ticks [sn << 15, (sn+1) << 15) for
    // absolute slot number sn and is indexed sn mod 4096. No pending
    // event is ever behind horizon_ (the wheel cursor), so at most one
    // epoch of ambiguity exists and a successor scan from the cursor's
    // index resolves it. Staging a slot sorts its records by (when,
    // seq) — a slot spans many ticks — which restores the exact global
    // FIFO order.
    // ------------------------------------------------------------
    static constexpr std::uint32_t kWheelSlotsLog = 12;
    static constexpr std::uint32_t kWheelSlots = 1u << kWheelSlotsLog;
    static constexpr std::uint32_t kSlotBits = 15; ///< slot width log2

    /** Queue a record on the active engine. */
    void push(const Record &ev);
    /** Pop the earliest record if it is due by `bound`. */
    std::optional<Record> pop(Tick bound);
    /** Execute one popped record. By value: the callback may schedule
     * into the staged band and reallocate the vector it came from. */
    void run(Record ev);
    /** Remove cell `cell`'s pending record, due at `when`. */
    void wheelRemove(Tick when, std::uint32_t cell);
    void heapRemove(std::uint32_t cell);
    void placeEvent(const Record &ev);
    void readyInsert(const Record &ev);
    void pullFar();
    /** Absolute number of the first occupied slot at or after the
     * cursor's, accounting for the one possible epoch wrap. */
    std::uint64_t nextSlot() const;

    /** Mark slot `idx` non-empty in the occupancy bitmap. */
    void
    occupy(std::uint32_t idx)
    {
        word_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        summary_ |= std::uint64_t{1} << (idx >> 6);
    }

    /** Mark slot `idx` empty in the occupancy bitmap. */
    void
    vacate(std::uint32_t idx)
    {
        word_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        if (word_[idx >> 6] == 0)
            summary_ &= ~(std::uint64_t{1} << (idx >> 6));
    }

    void arenaGrow();

    /** Claim a free arena cell, growing by a chunk if none is free. */
    std::uint32_t
    arenaAlloc()
    {
        if (free_cells_.empty())
            arenaGrow();
        const std::uint32_t idx = free_cells_.back();
        free_cells_.pop_back();
        return idx;
    }

    ArenaCell &
    arenaCell(std::uint32_t idx)
    {
        return arena_[idx >> kArenaChunkLog][idx & (kArenaChunk - 1)];
    }

    /**
     * Once ready_ is spent, stage the earliest pending slot's records
     * into it, staging (and pulling in the far list) only slots whose
     * base time is <= `bound` so horizon_ never overtakes a bound the
     * caller must stay under.
     * @retval true ready_ has a record (its when may exceed `bound`;
     *         the caller checks), false if nothing due by `bound`.
     */
    bool stageNext(Tick bound);

    EventQueueImpl impl_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t count_ = 0;
    std::vector<std::unique_ptr<ArenaCell[]>> arena_;
    std::vector<std::uint32_t> free_cells_;

    // Wheel state (unused by the heap engine).
    /** Wheel cursor: never ahead of any pending event, never behind
     * a staged slot's base; <= now_ at API boundaries. */
    Tick horizon_ = 0;
    std::vector<std::vector<Record>> slots_;
    /** Occupancy: word_[i] bit b = slot 64*i+b non-empty; summary_
     * bit i = word_[i] != 0. */
    std::uint64_t word_[kWheelSlots / 64] = {};
    std::uint64_t summary_ = 0;
    /** Records beyond the wheel's span, pulled in slot-aligned. */
    std::vector<Record> far_;
    Tick far_min_ = ~Tick{0};
    /** Absolute slot number of the band ready_ was staged from:
     * schedules landing in this band insert into ready_ directly. */
    std::uint64_t staged_sn_ = 0;
    std::vector<Record> ready_; ///< staged records, (when, seq) order
    std::size_t ready_pos_ = 0;

    // Heap state: a plain binary heap via push_heap/pop_heap.
    std::vector<Record> heap_;
};

} // namespace clio

#endif // CLIO_SIM_EVENT_QUEUE_HH
