/**
 * @file
 * Statistics collection: log-linear latency histograms with percentile
 * queries (HDR-histogram style).
 */

#ifndef CLIO_SIM_STATS_HH
#define CLIO_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace clio {

/**
 * Fixed-memory histogram of tick values with ~1.6% value resolution.
 *
 * Values are bucketed log-linearly: the exponent selects a power-of-two
 * band and the next kSubBucketBits bits select a linear sub-bucket, like
 * HdrHistogram. Percentile queries return the upper edge of the bucket
 * containing the requested rank, so reported percentiles never
 * under-state the latency.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    /** Record one sample. */
    void record(Tick value);

    /** Merge another histogram into this one. */
    void merge(const LatencyHistogram &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    Tick min() const { return count_ ? min_ : 0; }
    Tick max() const { return max_; }
    double mean() const;

    /**
     * Value at percentile p in [0, 100]. p = 0 reports the exact
     * minimum; other percentiles report the upper edge of the bucket
     * holding the requested rank, clamped to the exact maximum (so a
     * query never understates a latency and never exceeds max()).
     * An empty histogram reports 0 for every p.
     */
    Tick percentile(double p) const;

    Tick median() const { return percentile(50.0); }
    Tick p99() const { return percentile(99.0); }

  private:
    static constexpr int kSubBucketBits = 6;
    static constexpr int kSubBuckets = 1 << kSubBucketBits;
    static constexpr int kBands = 64 - kSubBucketBits;

    static int bucketIndex(Tick value);
    static Tick bucketUpperEdge(int index);

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_;
    Tick min_;
    Tick max_;
    double sum_;
    /** Occupied-bucket bounds [lo_, hi_]: percentile queries scan only
     * this range instead of all kBands * kSubBuckets buckets (the
     * occupied range of a real latency distribution is a handful of
     * cache lines). Empty histogram: lo_ > hi_. */
    int lo_;
    int hi_;
};

} // namespace clio

#endif // CLIO_SIM_STATS_HH
