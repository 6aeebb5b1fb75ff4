/**
 * @file
 * Physical page-frame allocator and the async free-page buffer.
 *
 * The FrameAllocator is the slow-path (ARM) structure that tracks which
 * physical frames of an MN are free. The AsyncFreePageBuffer is the
 * fixed-size hardware FIFO of pre-generated frame addresses that the
 * fast-path page-fault handler pulls from in bounded time (§4.3): the
 * ARM continuously refills it in the background so the fast path never
 * waits for a physical allocation.
 */

#ifndef CLIO_MEM_FRAME_ALLOCATOR_HH
#define CLIO_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Free-list allocator over an MN's physical frames (slow path, §4.3). */
class FrameAllocator
{
  public:
    /**
     * @param capacity physical bytes managed.
     * @param page_size frame size in bytes (a configured huge page).
     */
    FrameAllocator(std::uint64_t capacity, std::uint64_t page_size);

    /** Allocate one frame; nullopt when physical memory is exhausted. */
    std::optional<PhysAddr> allocate();

    /** Return a frame to the free list. */
    void free(PhysAddr frame);

    std::uint64_t totalFrames() const { return total_frames_; }
    std::uint64_t freeFrames() const { return free_list_.size(); }
    std::uint64_t usedFrames() const {
        return total_frames_ - free_list_.size();
    }

    /** Fraction of physical frames currently allocated, in [0, 1]. */
    double utilization() const;

  private:
    std::uint64_t page_size_;
    std::uint64_t total_frames_;
    /** LIFO free list: reuse recently freed frames first (cache warm). */
    std::vector<PhysAddr> free_list_;
};

/**
 * Fixed-capacity FIFO of pre-generated free frame addresses (§4.3).
 *
 * The fast path pops in O(1); the slow path pushes refills. Frames in
 * the buffer are *reserved* (already removed from the FrameAllocator),
 * so a pop can never race with an allocation.
 */
class AsyncFreePageBuffer
{
  public:
    explicit AsyncFreePageBuffer(std::uint32_t capacity);

    /** Pop a pre-allocated frame; nullopt if the buffer ran dry. */
    std::optional<PhysAddr> pop();

    /** Push a reserved frame; returns false when full (caller keeps
     * ownership and should return the frame to the allocator). */
    bool push(PhysAddr frame);

    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t size() const {
        return static_cast<std::uint32_t>(fifo_.size());
    }
    bool empty() const { return fifo_.empty(); }
    std::uint32_t vacancy() const { return capacity_ - size(); }

    /** Times the fast path found the buffer empty (should stay 0 in
     * steady state; a nonzero count means the refill rate fell behind
     * line rate). */
    std::uint64_t underflows() const { return underflows_; }

  private:
    std::uint32_t capacity_;
    std::deque<PhysAddr> fifo_;
    std::uint64_t underflows_ = 0;
};

} // namespace clio

#endif // CLIO_MEM_FRAME_ALLOCATOR_HH
