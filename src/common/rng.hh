/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic element in amsc (trace generators, tie-breaking, set
 * sampling) draws from an explicitly seeded Rng instance. There is no
 * global generator: determinism of whole-system simulations is part of
 * the public contract and covered by tests.
 *
 * The core generator is xoroshiro128++, which is small, fast, and of
 * ample quality for workload synthesis.
 */

#ifndef AMSC_COMMON_RNG_HH
#define AMSC_COMMON_RNG_HH

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace amsc
{

/** Deterministic xoroshiro128++ pseudo-random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 expansion avoids pathological all-zero states.
        std::uint64_t z = seed;
        auto next_split = [&z]() {
            z += 0x9e3779b97f4a7c15ULL;
            std::uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            return x ^ (x >> 31);
        };
        s0_ = next_split();
        s1_ = next_split();
        if (s0_ == 0 && s1_ == 0)
            s1_ = 1;
    }

    /** @return the next raw 64-bit pseudo-random value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result =
            rotl(s0_ + s1_, 17) + s0_;
        const std::uint64_t t = s1_ ^ s0_;
        s0_ = rotl(s0_, 49) ^ t ^ (t << 21);
        s1_ = rotl(t, 28);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        assert(bound > 0);
        // Modulo bias is negligible for simulation bounds << 2^64.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(hi >= lo);
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Derive an independent child generator (for per-warp streams). */
    Rng
    split()
    {
        return Rng(next() ^ 0xa5a5a5a55a5a5a5aULL);
    }

    /** Raw generator words, for checkpointing. */
    std::pair<std::uint64_t, std::uint64_t>
    state() const
    {
        return {s0_, s1_};
    }

    /** Restore raw words captured by state(). */
    void
    setState(std::uint64_t s0, std::uint64_t s1)
    {
        s0_ = s0;
        s1_ = s1;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s0_;
    std::uint64_t s1_;
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with skew alpha.
 *
 * Used by the synthetic workload generators to model hot shared cache
 * lines: higher alpha concentrates accesses on fewer lines, which is the
 * regime where a single shared-LLC slice becomes a bandwidth bottleneck.
 *
 * Sampling is O(log n) by binary search over the precomputed CDF; the
 * CDF table is shared between all warps of a kernel.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     population size (> 0).
     * @param alpha skew; 0 gives the uniform distribution.
     */
    ZipfSampler(std::uint64_t n, double alpha)
        : n_(n), alpha_(alpha)
    {
        assert(n > 0);
        // Cap the explicit CDF size; beyond the cap we sample a bucket
        // and pick uniformly inside it, preserving the heavy head.
        bucket_count_ = n > kMaxBuckets ? kMaxBuckets : n;
        cdf_.resize(bucket_count_);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < bucket_count_; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
            cdf_[i] = sum;
        }
        for (std::uint64_t i = 0; i < bucket_count_; ++i)
            cdf_[i] /= sum;
    }

    /** Draw one sample in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        // Binary search the first bucket with cdf >= u.
        std::uint64_t lo = 0;
        std::uint64_t hi = bucket_count_ - 1;
        while (lo < hi) {
            const std::uint64_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (bucket_count_ == n_)
            return lo;
        // Spread bucket `lo` over its share of the full population.
        const std::uint64_t per = n_ / bucket_count_;
        const std::uint64_t base = lo * per;
        const std::uint64_t width = lo + 1 == bucket_count_
            ? n_ - base
            : per;
        return base + rng.below(width == 0 ? 1 : width);
    }

    double alpha() const { return alpha_; }

  private:
    static constexpr std::uint64_t kMaxBuckets = 1 << 16;

    std::uint64_t n_;
    double alpha_;
    std::uint64_t bucket_count_;
    std::vector<double> cdf_;
};

} // namespace amsc

#endif // AMSC_COMMON_RNG_HH
