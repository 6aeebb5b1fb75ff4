/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component (link loss, workload generators, latency
 * jitter) draws from its own seeded Rng instance so that simulations are
 * reproducible regardless of module evaluation order.
 */

#ifndef CLIO_SIM_RNG_HH
#define CLIO_SIM_RNG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace clio {

/**
 * Master seed for a simulation run: the value of the CLIO_SEED
 * environment variable when set (parsed as an unsigned integer),
 * otherwise `fallback`. ModelConfig presets route their default seed
 * through this, so `CLIO_SEED=7 ./bench_fig07_latency_cdf` reruns a
 * whole figure under a different (still deterministic) seed without
 * recompiling, and the `determinism` ctest can pin two fresh processes
 * to one seed.
 */
std::uint64_t defaultSeed(std::uint64_t fallback);

/**
 * xoshiro256** generator: tiny, fast, and high quality; preferable to
 * std::mt19937 here because its state is 4 words and copies are cheap.
 */
class Rng
{
  public:
    /** Seed via splitmix64 so that small seeds still diverge quickly. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) (bound must be nonzero). */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Exponentially distributed value with the given mean, clamped to
     * [0, 20*mean] to avoid pathological tails in timing jitter.
     */
    double exponential(double mean);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipfian integer generator over [0, n) with skew theta, matching the
 * YCSB generator used in the paper's §7.2 (theta = 0.99 by default).
 *
 * Uses the Gray/Jim standard rejection-free formula with precomputed
 * zeta values; generation is O(1) per sample.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta, std::uint64_t seed);

    /** Next zipf-distributed item index in [0, n). */
    std::uint64_t next();

  private:
    static double zeta(std::uint64_t n, double theta);

    Rng rng_;
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
};

} // namespace clio

#endif // CLIO_SIM_RNG_HH
