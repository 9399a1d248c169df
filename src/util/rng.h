/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element in the library (trace synthesis, approximate-ALU
 * noise, retention-failure bit flips) draws from a seeded Rng so that all
 * experiments are exactly reproducible. The engine is xoshiro256** which is
 * fast, has a 256-bit state and passes BigCrush.
 */

#ifndef INC_UTIL_RNG_H
#define INC_UTIL_RNG_H

#include <bit>
#include <cstdint>

namespace inc::util
{

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Not thread safe; each simulator component owns its own instance, forked
 * from a master seed via split() so streams are independent.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x1badb002dedf00dULL);

    /** Next raw 64-bit value. Inline: outage decay draws one per
     *  approximable byte, so a call per draw would dominate it. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform in [0, bound) without modulo bias. bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of true. */
    bool nextBool(double p = 0.5);

    /** Standard normal variate (Box-Muller, cached pair). */
    double nextGaussian();

    /** Exponential variate with the given mean. */
    double nextExponential(double mean);

    /**
     * Fork an independent child stream. The child is seeded from this
     * stream's output, so a single master seed yields a reproducible tree
     * of independent generators.
     */
    Rng split();

  private:
    std::uint64_t s_[4];
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

} // namespace inc::util

#endif // INC_UTIL_RNG_H
