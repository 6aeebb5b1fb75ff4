/**
 * @file
 * Type-erased `void()` closure cell for the event queue's arena.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * which on the simulator's hot path means one malloc/free per scheduled
 * event. EventCallback instead carries a 104-byte inline buffer — large
 * enough for every closure the simulator schedules (the biggest, the
 * network delivery closure with an in-flight Packet, is 88 bytes) — and
 * erases behavior behind a static two-entry vtable. A closure is built
 * in place by emplace() and never moves: the queue orders plain records
 * that name the cell, so the cell has no copy or move operations.
 * Closures that exceed the buffer fall back to a heap box, so
 * correctness never depends on the size budget.
 */

#ifndef CLIO_SIM_CALLBACK_HH
#define CLIO_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace clio {

/** Type-erased closure cell, built in place (see file comment). */
class EventCallback
{
  public:
    /** Inline capture budget: with the vtable pointer and the arena
     * cell's due time and generation, a 128-byte cell. */
    static constexpr std::size_t kInlineBytes = 104;

    EventCallback() = default;
    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /** Destroy any held closure and construct `fn` in place, so a
     * recycled cell (an event-queue arena slot) takes a new closure
     * with zero intermediate moves. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "EventCallback requires a void() callable");
        reset();
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = inlineOps<Fn>();
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = boxedOps<Fn>();
        }
    }

    /** Destroy the held closure, returning to the empty state. */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        void (*destroy)(void *self);
    };

    template <typename Fn>
    static const Ops *
    inlineOps()
    {
        static constexpr Ops ops{
            [](void *self) { (*static_cast<Fn *>(self))(); },
            [](void *self) { static_cast<Fn *>(self)->~Fn(); },
        };
        return &ops;
    }

    template <typename Fn>
    static const Ops *
    boxedOps()
    {
        static constexpr Ops ops{
            [](void *self) { (**static_cast<Fn **>(self))(); },
            [](void *self) { delete *static_cast<Fn **>(self); },
        };
        return &ops;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace clio

#endif // CLIO_SIM_CALLBACK_HH
