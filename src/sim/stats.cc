#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace clio {

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kBands) * kSubBuckets, 0),
      count_(0), min_(kTickMax), max_(0), sum_(0.0),
      lo_(kBands * kSubBuckets), hi_(-1)
{
}

int
LatencyHistogram::bucketIndex(Tick value)
{
    if (value < kSubBuckets) {
        // Band 0 is exact: one bucket per value below kSubBuckets.
        return static_cast<int>(value);
    }
    const int msb = 63 - std::countl_zero(value);
    const int band = msb - kSubBucketBits + 1;
    const int sub =
        static_cast<int>((value >> (msb - kSubBucketBits)) &
                         (kSubBuckets - 1));
    // Bands above 0 use the sub-bucket field; the leading 1 bit is
    // implicit, so `sub` covers [0, kSubBuckets).
    int index = band * kSubBuckets + sub;
    const int last = kBands * kSubBuckets - 1;
    return index > last ? last : index;
}

Tick
LatencyHistogram::bucketUpperEdge(int index)
{
    const int band = index / kSubBuckets;
    const int sub = index % kSubBuckets;
    if (band == 0)
        return static_cast<Tick>(sub);
    const int msb = band + kSubBucketBits - 1;
    const Tick base = Tick(1) << msb;
    const Tick step = Tick(1) << (msb - kSubBucketBits);
    return base + step * static_cast<Tick>(sub + 1) - 1;
}

void
LatencyHistogram::record(Tick value)
{
    const int index = bucketIndex(value);
    buckets_[static_cast<std::size_t>(index)]++;
    count_++;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    sum_ += static_cast<double>(value);
    lo_ = std::min(lo_, index);
    hi_ = std::max(hi_, index);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0) {
        // Nothing to add; in particular other.min_ (kTickMax sentinel)
        // and other.max_ (0) must not touch our extremes.
        return;
    }
    for (int i = other.lo_; i <= other.hi_; i++)
        buckets_[static_cast<std::size_t>(i)] +=
            other.buckets_[static_cast<std::size_t>(i)];
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
}

void
LatencyHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    min_ = kTickMax;
    max_ = 0;
    sum_ = 0.0;
    lo_ = kBands * kSubBuckets;
    hi_ = -1;
}

double
LatencyHistogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

Tick
LatencyHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    clio_assert(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    if (p == 0.0) {
        // The 0th percentile is the smallest sample, exactly; the
        // bucket edge would overstate it (single-sample histograms
        // included).
        return min_;
    }
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    const std::uint64_t target = rank == 0 ? 1 : rank;
    std::uint64_t seen = 0;
    for (int i = lo_; i <= hi_; i++) {
        seen += buckets_[static_cast<std::size_t>(i)];
        if (seen >= target) {
            const Tick edge = bucketUpperEdge(i);
            // Never report beyond the true max.
            return std::min(edge, max_);
        }
    }
    return max_;
}

} // namespace clio
