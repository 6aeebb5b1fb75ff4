#include "mem/frame_allocator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace clio {

FrameAllocator::FrameAllocator(std::uint64_t capacity,
                               std::uint64_t page_size)
    : page_size_(page_size), total_frames_(capacity / page_size)
{
    clio_assert(page_size > 0, "page size must be nonzero");
    clio_assert(total_frames_ > 0,
                "capacity %llu too small for page size %llu",
                (unsigned long long)capacity,
                (unsigned long long)page_size);
    free_list_.reserve(total_frames_);
    // Push high addresses first so allocation (which pops the back)
    // hands out low addresses first.
    for (std::uint64_t i = total_frames_; i-- > 0;)
        free_list_.push_back(i * page_size_);
}

std::optional<PhysAddr>
FrameAllocator::allocate()
{
    if (free_list_.empty())
        return std::nullopt;
    PhysAddr frame = free_list_.back();
    free_list_.pop_back();
    return frame;
}

void
FrameAllocator::free(PhysAddr frame)
{
    clio_assert(frame % page_size_ == 0, "freeing unaligned frame");
    clio_assert(free_list_.size() < total_frames_,
                "double free: free list already full");
    free_list_.push_back(frame);
}

double
FrameAllocator::utilization() const
{
    return static_cast<double>(usedFrames()) /
           static_cast<double>(total_frames_);
}

AsyncFreePageBuffer::AsyncFreePageBuffer(std::uint32_t capacity)
    : capacity_(capacity)
{
    clio_assert(capacity > 0, "async buffer capacity must be nonzero");
}

std::optional<PhysAddr>
AsyncFreePageBuffer::pop()
{
    if (fifo_.empty()) {
        underflows_++;
        return std::nullopt;
    }
    PhysAddr frame = fifo_.front();
    fifo_.pop_front();
    return frame;
}

bool
AsyncFreePageBuffer::push(PhysAddr frame)
{
    if (fifo_.size() >= capacity_)
        return false;
    fifo_.push_back(frame);
    return true;
}

} // namespace clio
