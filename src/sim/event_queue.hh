/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue instance drives one simulated cluster. Components
 * schedule callbacks at absolute or relative simulated times; the queue
 * executes them in (time, insertion order) order, so same-tick events are
 * deterministic FIFO.
 *
 * There is deliberately no cancellation API: events that may become
 * stale (e.g. retransmission timeouts) carry a generation counter in
 * their closure and turn into no-ops when the state has moved on.
 *
 * Two implementations live behind one facade, selectable per queue:
 *
 *  - kTimingWheel (default): a two-tier timing wheel. The fine wheel
 *    has 4096 slots of 2^15 ticks (~134 us span), sized so data-path
 *    delays — NIC/switch hops, RTTs, even the data-path retry timeout
 *    — land in their final slot with a SINGLE placement, never
 *    cascading. The coarse wheel (4096 slots of 2^27 ticks, ~0.55 s
 *    span) catches slow-path timeouts and other far events with one
 *    extra hop; anything beyond it sits in a small overflow list that
 *    is swept only when the cursor reaches it (a calendar fallback for
 *    arbitrarily far futures). Each wheel tracks slot occupancy with a
 *    64-word bitmap plus a one-word summary, so finding the next
 *    occupied slot is two bit scans. Slot vectors recycle their
 *    capacity and closures are arena'd inline in EventCallback
 *    buffers, so steady-state scheduling performs no allocation.
 *    O(1) schedule, amortized O(1) pop.
 *
 *  - kBinaryHeap: the reference implementation — a binary heap of
 *    std::function events, kept as the oracle for differential tests.
 *
 * Both order events identically, byte-for-byte reproducibly.
 */

#ifndef CLIO_SIM_EVENT_QUEUE_HH
#define CLIO_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
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

/** Minimal event-driven simulation kernel (one per simulated cluster). */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    explicit EventQueue(EventQueueImpl impl = EventQueueImpl::kDefault);
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The engine this queue resolved to (never kDefault). */
    EventQueueImpl impl() const { return impl_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule a callback at absolute tick `when` (>= now). */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        clio_assert(when >= now_,
                    "scheduling into the past: when=%llu now=%llu",
                    static_cast<unsigned long long>(when),
                    static_cast<unsigned long long>(now_));
        if (impl_ == EventQueueImpl::kTimingWheel) {
            // Construct the closure directly in its arena cell: it is
            // built exactly once and never moves until destruction.
            const std::uint32_t idx = arenaAlloc();
            arenaCell(idx).emplace(std::forward<F>(fn));
            wheelInsert(when, idx);
        } else {
            scheduleHeap(when, Callback(std::forward<F>(fn)));
        }
    }

    /** Schedule a callback `delay` ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

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
    // ------------------------------------------------------------
    // Timing wheel: two tiers plus an overflow list. A slot of the
    // fine wheel covers ticks [sn << 15, (sn+1) << 15) for absolute
    // slot number sn; slots are indexed sn mod 4096, and because no
    // pending event is ever behind horizon_ (the wheel cursor), at
    // most one epoch of ambiguity exists and a successor scan from
    // the cursor's index resolves it. The coarse wheel is identical
    // with 2^27-tick slots. Staging a fine slot sorts its events by
    // (when, seq) — a slot spans many ticks — which restores the
    // exact global FIFO order.
    // ------------------------------------------------------------
    static constexpr std::uint32_t kWheelSlotsLog = 12;
    static constexpr std::uint32_t kWheelSlots = 1u << kWheelSlotsLog;
    static constexpr std::uint32_t kSlot0Bits = 15; ///< fine slot width
    static constexpr std::uint32_t kSlot1Bits =
        kSlot0Bits + kWheelSlotsLog; ///< coarse slot width (2^27)

    /**
     * A pending wheel event. The closure itself lives in the arena
     * (cb_idx names its cell), so the record is a trivially copyable
     * 24 bytes and moving it between slots is a plain copy — the
     * closure is constructed once at schedule and never moves again.
     */
    struct WheelEvent
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t cb_idx;
    };

    /** One wheel tier: slot vectors plus a two-level occupancy bitmap
     * (word[i] bit b = slot 64*i+b non-empty; summary bit i =
     * word[i] != 0). */
    struct Wheel
    {
        std::vector<std::vector<WheelEvent>> slots;
        std::uint64_t word[kWheelSlots / 64] = {};
        std::uint64_t summary = 0;

        void
        set(std::uint32_t idx)
        {
            word[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            summary |= std::uint64_t{1} << (idx >> 6);
        }

        void
        clear(std::uint32_t idx)
        {
            word[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
            if (word[idx >> 6] == 0)
                summary &= ~(std::uint64_t{1} << (idx >> 6));
        }

        /** First occupied slot index >= `from`, else -1. */
        int successor(std::uint32_t from) const;
        /** First occupied slot index, else -1. */
        int first() const;
    };

    struct HeapEvent
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    void scheduleHeap(Tick when, Callback cb);
    void wheelInsert(Tick when, std::uint32_t cb_idx);
    bool runOneWheel();
    bool runOneHeap();
    void placeEvent(const WheelEvent &ev);
    void readyInsert(const WheelEvent &ev);
    void sweepOverflow();
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

    EventCallback &
    arenaCell(std::uint32_t idx)
    {
        return arena_[idx >> kArenaChunkLog][idx & (kArenaChunk - 1)];
    }

    /**
     * Ensure ready_ holds the earliest pending slot's events, staging
     * (and cascading/sweeping) only slots whose base time is <=
     * `bound` so horizon_ never overtakes a bound the caller must
     * stay under.
     * @retval true ready_ has an event (its when may exceed `bound`;
     *         the caller checks), false if nothing due by `bound`.
     */
    bool stageNext(Tick bound);

    EventQueueImpl impl_;
    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t count_ = 0;

    // Wheel state (empty vectors when the heap engine is active).
    static constexpr std::uint32_t kArenaChunkLog = 10;
    static constexpr std::uint32_t kArenaChunk = 1u << kArenaChunkLog;

    /** Wheel cursor: never ahead of any pending event, never behind
     * a staged slot's base; <= now_ at API boundaries. */
    Tick horizon_ = 0;
    Wheel fine_;
    Wheel coarse_;
    /** Events beyond the coarse span, swept when the cursor nears. */
    std::vector<WheelEvent> overflow_;
    Tick overflow_min_ = ~Tick{0};
    /** Absolute fine-slot number of the band ready_ was staged from:
     * schedules landing in this band insert into ready_ directly. */
    std::uint64_t staged_sn_ = 0;
    std::vector<WheelEvent> ready_; ///< staged events, (when, seq) order
    std::size_t ready_pos_ = 0;
    std::vector<std::unique_ptr<EventCallback[]>> arena_;
    std::vector<std::uint32_t> free_cells_;

    // Heap state: a plain binary heap via push_heap/pop_heap.
    std::vector<HeapEvent> heap_;
};

} // namespace clio

#endif // CLIO_SIM_EVENT_QUEUE_HH
