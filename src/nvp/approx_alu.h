/**
 * @file
 * Configurable approximate ALU (paper Sec. 4, Sec. 8.1).
 *
 * The precise path implements the 16-bit integer semantics of the ISA.
 * The approximate path models the gradient-VDD designs of the paper's
 * refs [8, 75]: an N-bit reduced-quality ALU preserves the upper N bits
 * of the 8-bit significance window and produces random outputs in the
 * low (8-N) bits — i.e. noise injection rather than truncation (which is
 * the *memory* approximation model; see DataMemory).
 */

#ifndef INC_NVP_APPROX_ALU_H
#define INC_NVP_APPROX_ALU_H

#include <cstdint>

#include "isa/isa.h"
#include "util/rng.h"

namespace inc::nvp
{

/** Approximate ALU model. */
class ApproxAlu
{
  public:
    explicit ApproxAlu(util::Rng rng);

    /**
     * Precise 16-bit result of @p op on operands @p a and @p b
     * (b is the immediate for I-type ops). Only data-producing ops are
     * valid here.
     */
    static std::uint16_t compute(isa::Op op, std::uint16_t a,
                                 std::uint16_t b);

    /**
     * Randomize the low (8 - @p bits) bits of @p value (noise model).
     * bits >= 8 returns the value unchanged.
     */
    std::uint16_t injectNoise(std::uint16_t value, int bits);

    /** The noise stream; its next draw is the next noisy lane-op's. */
    const util::Rng &rng() const { return rng_; }

  private:
    util::Rng rng_;
};

} // namespace inc::nvp

#endif // INC_NVP_APPROX_ALU_H
