/**
 * @file
 * Power-free functional execution of a kernel.
 *
 * Runs the kernel's frame loop for a fixed number of frames at a fixed
 * precision configuration, with no harvesting model. Used for:
 *
 *  - kernel correctness tests (precise run must match the golden model
 *    bit-exactly);
 *  - the fixed-bitwidth quality experiments (paper Figs. 11-14), where
 *    the ALU and memory approximation models are exercised separately;
 *  - calibration: cycles and instructions per frame feed the sensor
 *    frame-period choice (frameCycles) and the wait-compute baseline.
 */

#ifndef INC_SIM_FUNCTIONAL_H
#define INC_SIM_FUNCTIONAL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "approx/quality.h"
#include "kernels/kernel.h"
#include "nvp/core.h"

namespace inc::sim
{

/** Functional run configuration. */
struct FunctionalConfig
{
    int frames = 1;           ///< number of frames to process
    int bits = 8;             ///< fixed datapath/memory precision
    bool approx_alu = true;   ///< enable the ALU noise model
    bool approx_mem = true;   ///< enable the memory truncation model
    std::uint64_t seed = 99;  ///< scene + noise seed
    std::uint64_t max_instructions = 200'000'000; ///< runaway guard
};

/** Result of a functional run. */
struct FunctionalResult
{
    std::vector<std::vector<std::uint8_t>> outputs; ///< per frame
    std::vector<std::vector<std::uint8_t>> golden;  ///< per frame
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    double cyclesPerFrame() const
    {
        return outputs.empty() ? 0.0
                               : static_cast<double>(cycles) /
                                     static_cast<double>(outputs.size());
    }

    /** Mean MSE / PSNR of outputs against golden. */
    double meanMse() const;
    double meanPsnr() const;
};

/** Execute @p kernel functionally under @p config. */
FunctionalResult runFunctional(const kernels::Kernel &kernel,
                               const FunctionalConfig &config);

/** Entries the process-wide frameCycles() memo holds at most. */
constexpr std::size_t kFrameCyclesMemoEntries = 16;

/**
 * Cycles the precise program spends on @p kernel's first frame at
 * @p seed: runFunctional() at 1 frame, 8 bits and @p seed, then
 * cyclesPerFrame(). The value is served from a process-wide memo of at
 * most kFrameCyclesMemoEntries entries (oldest evicted first, guarded
 * by a mutex), keyed by everything that run reads: the seed, the
 * program's instructions, the init blocks, the frame layout, the
 * scratch region and frame 0's input bytes. Never by name: one name
 * may stand for different programs (the fuzzer's). A hit returns
 * exactly what a miss computes.
 */
double frameCycles(const kernels::Kernel &kernel, std::uint64_t seed);

} // namespace inc::sim

#endif // INC_SIM_FUNCTIONAL_H
