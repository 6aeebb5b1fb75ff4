#include "cboard/dedup_buffer.hh"

#include "sim/logging.hh"

namespace clio {

DedupBuffer::DedupBuffer(std::uint32_t capacity)
    : ring_(capacity), index_(capacity)
{
    clio_assert(capacity > 0, "dedup buffer capacity must be nonzero");
}

void
DedupBuffer::record(ReqId req_id, std::uint64_t value)
{
    if (index_.find(req_id) != index_.kNone)
        return; // already recorded (e.g. duplicate delivery)
    Entry &slot = ring_[next_];
    if (size_ == ring_.size())
        index_.erase(slot.req_id); // evict the oldest
    else
        size_++;
    slot = Entry{req_id, value};
    index_.insert(req_id, next_);
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
}

std::optional<std::uint64_t>
DedupBuffer::find(ReqId req_id) const
{
    const std::uint32_t slot = index_.find(req_id);
    if (slot == index_.kNone)
        return std::nullopt;
    return ring_[slot].value;
}

} // namespace clio
