#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>

namespace clio {

namespace {

/** Global FIFO order within a staged slot (a slot spans many ticks). */
constexpr auto kWhenSeqOrder = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
};

/** The reverse, so the heap engine's std::*_heap pop the earliest. */
constexpr auto kLater = [](const auto &a, const auto &b) {
    return kWhenSeqOrder(b, a);
};

constexpr Tick kNoTick = ~Tick{0};
constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

} // namespace

EventQueue::EventQueue(EventQueueImpl impl) : impl_(impl)
{
    if (impl_ == EventQueueImpl::kDefault) {
        const char *env = std::getenv("CLIO_EVENT_QUEUE");
        impl_ = (env != nullptr && std::string_view(env) == "heap")
                    ? EventQueueImpl::kBinaryHeap
                    : EventQueueImpl::kTimingWheel;
    }
    if (impl_ == EventQueueImpl::kTimingWheel)
        slots_.resize(kWheelSlots);
}

void
EventQueue::arenaGrow()
{
    const auto base =
        static_cast<std::uint32_t>(arena_.size() * kArenaChunk);
    arena_.push_back(std::make_unique<ArenaCell[]>(kArenaChunk));
    free_cells_.reserve(free_cells_.size() + kArenaChunk);
    for (std::uint32_t i = kArenaChunk; i > 0; i--)
        free_cells_.push_back(base + i - 1);
}

void
EventQueue::push(const Record &ev)
{
    count_++;
    if (impl_ != EventQueueImpl::kTimingWheel) {
        heap_.push_back(ev);
        std::push_heap(heap_.begin(), heap_.end(), kLater);
    } else if ((ev.when >> kSlotBits) == staged_sn_) {
        // The event lands in the band currently staged in ready_ (its
        // occupancy bit is already spent); splice it in FIFO position.
        readyInsert(ev);
    } else {
        placeEvent(ev);
    }
}

void
EventQueue::readyInsert(const Record &ev)
{
    // Only the unexecuted tail [ready_pos_, end) is live. The new
    // event's seq is the largest yet, so it goes after every pending
    // event with the same or earlier due time.
    const auto pos = std::upper_bound(
        ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
        ready_.end(), ev.when,
        [](Tick when, const Record &e) { return when < e.when; });
    ready_.insert(pos, ev);
}

void
EventQueue::placeEvent(const Record &ev)
{
    // No pending event is ever behind the cursor, so within the
    // wheel's span the slot index (absolute slot number mod 4096) is
    // unambiguous: at most one epoch separates any pending slot from
    // the cursor's, and the successor scan resolves the wrap.
    const std::uint64_t sn = ev.when >> kSlotBits;
    if (sn - (horizon_ >> kSlotBits) >= kWheelSlots) {
        far_min_ = std::min(far_min_, ev.when);
        far_.push_back(ev);
        return;
    }
    const auto idx = static_cast<std::uint32_t>(sn & (kWheelSlots - 1));
    slots_[idx].push_back(ev);
    occupy(idx);
}

void
EventQueue::pullFar()
{
    // The cursor just reached the far list's earliest slot: move every
    // record now within the wheel's span into it, keep the rest.
    std::size_t kept = 0;
    far_min_ = kNoTick;
    for (const Record &ev : far_) {
        if ((ev.when >> kSlotBits) - (horizon_ >> kSlotBits) <
            kWheelSlots) {
            placeEvent(ev);
        } else {
            far_min_ = std::min(far_min_, ev.when);
            far_[kept++] = ev;
        }
    }
    far_.resize(kept);
}

void
EventQueue::wheelRemove(Tick when, std::uint32_t cell)
{
    const auto erase = [cell](std::vector<Record> &v, std::size_t from) {
        const auto it = std::find_if(
            v.begin() + static_cast<std::ptrdiff_t>(from), v.end(),
            [cell](const Record &e) { return e.cell == cell; });
        if (it == v.end())
            return false;
        v.erase(it); // keeps the (when, seq) order staging relies on
        return true;
    };
    // Only ready_'s unexecuted tail is live: an executed record before
    // ready_pos_ may name the same, since reused, cell.
    const std::uint64_t sn = when >> kSlotBits;
    if (sn == staged_sn_ && erase(ready_, ready_pos_))
        return;
    const auto idx = static_cast<std::uint32_t>(sn & (kWheelSlots - 1));
    if (erase(slots_[idx], 0)) {
        if (slots_[idx].empty())
            vacate(idx);
        return;
    }
    const bool found = erase(far_, 0);
    clio_assert(found, "cancelled event %u has no record", cell);
    far_min_ = kNoTick;
    for (const Record &ev : far_)
        far_min_ = std::min(far_min_, ev.when);
}

void
EventQueue::heapRemove(std::uint32_t cell)
{
    const auto it =
        std::find_if(heap_.begin(), heap_.end(),
                     [cell](const Record &e) { return e.cell == cell; });
    clio_assert(it != heap_.end(), "cancelled event %u has no record",
                cell);
    *it = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), kLater);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kNoEvent)
        return false;
    const auto idx = static_cast<std::uint32_t>(id) - 1;
    if (idx >= arena_.size() * kArenaChunk)
        return false;
    ArenaCell &cell = arenaCell(idx);
    if (cell.gen != static_cast<std::uint32_t>(id >> 32))
        return false; // ran, running, cancelled, or the cell was reused
    if (impl_ == EventQueueImpl::kTimingWheel)
        wheelRemove(cell.when, idx);
    else
        heapRemove(idx);
    cell.gen++;
    cell.cb.reset();
    free_cells_.push_back(idx);
    count_--;
    return true;
}

std::uint64_t
EventQueue::nextSlot() const
{
    const std::uint64_t cursor_sn = horizon_ >> kSlotBits;
    const auto c = static_cast<std::uint32_t>(cursor_sn & (kWheelSlots - 1));
    // Occupied slots at or after the cursor's index, then (wrapped)
    // from index 0.
    const std::uint32_t w = c >> 6;
    const std::uint64_t head = word_[w] & (~std::uint64_t{0} << (c & 63));
    if (head != 0)
        return cursor_sn - c + ((w << 6) | std::countr_zero(head));
    const std::uint64_t rest =
        w == 63 ? 0 : summary_ & (~std::uint64_t{0} << (w + 1));
    const std::uint64_t words = rest != 0 ? rest : summary_;
    if (words == 0)
        return kNoSlot;
    const auto nw = static_cast<std::uint32_t>(std::countr_zero(words));
    const std::uint64_t f = (nw << 6) | std::countr_zero(word_[nw]);
    return cursor_sn - c + f + (rest != 0 ? 0 : kWheelSlots);
}

bool
EventQueue::stageNext(Tick bound)
{
    for (;;) {
        const std::uint64_t sn = nextSlot();
        if (!far_.empty() && (far_min_ >> kSlotBits) <= sn) {
            // Nothing pending before the far list's earliest slot:
            // move the cursor to that slot's base and pull the list's
            // now-reachable records in, so they are staged with the
            // records already in the slot.
            const Tick base = (far_min_ >> kSlotBits) << kSlotBits;
            if (base > bound)
                return false;
            horizon_ = base;
            pullFar();
            continue;
        }
        if (sn == kNoSlot || (sn << kSlotBits) > bound) {
            // Nothing pending, or the earliest record is past the
            // caller's bound; leave the cursor behind it so later
            // schedules (>= bound) never land behind the cursor.
            return false;
        }
        const auto idx = static_cast<std::uint32_t>(sn & (kWheelSlots - 1));
        vacate(idx);
        horizon_ = sn << kSlotBits;
        staged_sn_ = sn;
        // Swapping recycles both vectors' capacity, so the steady
        // state allocates nothing. A slot spans 2^15 ticks, so events
        // of several due times may mix; sort restores global FIFO
        // order (pushes are usually already in (when, seq) order).
        ready_.clear();
        ready_pos_ = 0;
        std::swap(ready_, slots_[idx]);
        if (!std::is_sorted(ready_.begin(), ready_.end(), kWhenSeqOrder))
            std::sort(ready_.begin(), ready_.end(), kWhenSeqOrder);
        return true;
    }
}

std::optional<EventQueue::Record>
EventQueue::pop(Tick bound)
{
    if (impl_ == EventQueueImpl::kTimingWheel) {
        if ((ready_pos_ == ready_.size() && !stageNext(bound)) ||
            ready_[ready_pos_].when > bound)
            return std::nullopt;
        return ready_[ready_pos_++];
    }
    if (heap_.empty() || heap_.front().when > bound)
        return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    const Record ev = heap_.back();
    heap_.pop_back();
    return ev;
}

void
EventQueue::run(Record ev)
{
    now_ = ev.when;
    executed_++;
    count_--;
    // The arena cell stays valid across the call even if the callback
    // schedules (chunks never move); release it only afterwards so a
    // closure never frees its own cell mid-flight. Its id goes stale
    // first, so cancelling the running event is a no-op.
    ArenaCell &cell = arenaCell(ev.cell);
    cell.gen++;
    cell.cb();
    cell.cb.reset();
    free_cells_.push_back(ev.cell);
}

bool
EventQueue::runOne()
{
    const std::optional<Record> ev = pop(kNoTick);
    if (!ev)
        return false;
    run(*ev);
    return true;
}

void
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        n++;
}

bool
EventQueue::runUntil(const std::function<bool()> &pred,
                     std::uint64_t max_events)
{
    if (pred())
        return true;
    std::uint64_t n = 0;
    while (n < max_events && runOne()) {
        n++;
        if (pred())
            return true;
    }
    return false;
}

void
EventQueue::runUntilTime(Tick t)
{
    while (const std::optional<Record> ev = pop(t))
        run(*ev);
    if (t > now_)
        now_ = t;
}

} // namespace clio
