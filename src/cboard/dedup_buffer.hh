/**
 * @file
 * Request-id dedup buffer (§4.5 T4): a small ring recording the ids of
 * recently executed non-idempotent requests (writes, atomics, allocs,
 * frees, offloads) and the value each replied with. A retry carries the
 * original attempt's id; if the MN finds it here, it skips execution
 * and replays the cached value. Capacity is statically sized from 3 x TIMEOUT x bandwidth —
 * one of only two pieces of state the MN keeps, independent of client
 * count.
 */

#ifndef CLIO_CBOARD_DEDUP_BUFFER_HH
#define CLIO_CBOARD_DEDUP_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/flat_index.hh"
#include "sim/types.hh"

namespace clio {

/** Ring buffer of executed non-idempotent request ids + reply values. */
class DedupBuffer
{
  public:
    explicit DedupBuffer(std::uint32_t capacity);

    /**
     * Record an executed non-idempotent request.
     * @param req_id the ORIGINAL attempt id (retries carry it along).
     * @param value the reply's value register: an atomic's old value,
     *        an alloc's address (0 for writes and frees).
     */
    void record(ReqId req_id, std::uint64_t value = 0);

    /**
     * Check whether `req_id` was already executed.
     * @return the cached reply value when found; nullopt otherwise.
     */
    std::optional<std::uint64_t> find(ReqId req_id) const;

    std::uint32_t capacity() const {
        return static_cast<std::uint32_t>(ring_.size());
    }
    std::uint32_t size() const { return size_; }

    /** Suppressed duplicate executions (stat). */
    std::uint64_t suppressed() const { return suppressed_; }
    void noteSuppressed() { suppressed_++; }

  private:
    struct Entry
    {
        ReqId req_id = 0;
        std::uint64_t value = 0;
    };

    /** Recorded requests in insertion order, oldest at `next_` once
     * the ring is full (FIFO eviction). */
    std::vector<Entry> ring_;
    /** req_id -> ring index. */
    FlatIndex<ReqId> index_;
    std::uint32_t next_ = 0;
    std::uint32_t size_ = 0;
    std::uint64_t suppressed_ = 0;
};

} // namespace clio

#endif // CLIO_CBOARD_DEDUP_BUFFER_HH
