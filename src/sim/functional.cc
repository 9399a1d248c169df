#include "sim/functional.h"

#include <compare>
#include <utility>

#include "util/logging.h"
#include "util/memo.h"

namespace inc::sim
{

namespace
{

/** Everything frameCycles()'s functional run reads. */
struct FrameCyclesKey
{
    std::uint64_t seed;
    std::vector<isa::Instruction> code;
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
        init_blocks;
    core::FrameLayout layout;
    std::uint32_t scratch_base;
    std::uint32_t scratch_bytes;
    std::vector<std::uint8_t> input; ///< frame 0's input bytes

    auto operator<=>(const FrameCyclesKey &) const = default;
};

using FrameCyclesMemo = util::BoundedMemo<FrameCyclesKey, double>;

FrameCyclesMemo &
frameCyclesMemo()
{
    // Never destroyed: a sweep thread may still build a simulator while
    // the process exits.
    static FrameCyclesMemo *const memo =
        new FrameCyclesMemo(kFrameCyclesMemoEntries);
    return *memo;
}

} // namespace

double
FunctionalResult::meanMse() const
{
    if (outputs.empty())
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < outputs.size(); ++i)
        sum += approx::mse(outputs[i], golden[i]);
    return sum / static_cast<double>(outputs.size());
}

double
FunctionalResult::meanPsnr() const
{
    return approx::psnrFromMse(meanMse());
}

FunctionalResult
runFunctional(const kernels::Kernel &kernel,
              const FunctionalConfig &config)
{
    if (config.bits < 1 || config.bits > 8)
        util::fatal("FunctionalConfig bits must be 1..8");
    if (config.frames < 1)
        util::fatal("FunctionalConfig frames must be >= 1");

    util::Rng rng(config.seed);
    util::SceneGenerator scene(kernel.width, kernel.height, kernel.scene,
                               config.seed);

    nvp::DataMemory mem(rng.split());
    for (const auto &[addr, data] : kernel.init_blocks)
        mem.hostWriteBlock(addr, data);
    // AC region over the input ring (policy irrelevant without power
    // failures; full retention keeps decay out of functional runs).
    mem.addAcRegion({kernel.layout.in_base,
                     kernel.layout.in_bytes *
                         static_cast<std::uint32_t>(
                             kernel.layout.in_slots),
                     nvm::RetentionPolicy::full});
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes *
                               static_cast<std::uint32_t>(
                                   kernel.layout.out_slots));
    if (kernel.scratch_bytes > 0) {
        mem.addVersionedRegion(kernel.scratch_base, kernel.scratch_bytes,
                               /*write_through=*/false);
    }

    nvp::CoreConfig core_cfg;
    core_cfg.approx_alu = config.approx_alu;
    core_cfg.approx_mem = config.approx_mem;
    nvp::Core core(&kernel.program, &mem, core_cfg, rng.split());
    // Set once: acen toggles only the AC-enable bit, and nothing else in
    // a functional run writes lane 0's precision.
    core.setMainBits(config.bits);

    FunctionalResult result;
    std::vector<std::vector<std::uint8_t>> inputs;
    inputs.reserve(static_cast<size_t>(config.frames));
    for (int f = 0; f < config.frames; ++f) {
        inputs.push_back(kernel.make_input(scene, f));
        result.golden.push_back(kernel.golden(inputs.back()));
    }

    int current_frame = -1;
    while (result.instructions < config.max_instructions) {
        const nvp::StepResult step = core.step();
        result.instructions += static_cast<std::uint64_t>(
            step.lanes_committed);
        result.cycles += static_cast<std::uint64_t>(step.cycles);

        if (step.mark_resume) {
            // Frame boundary: collect the finished frame, feed the next.
            if (current_frame >= 0) {
                const std::uint32_t addr = kernel.layout.outSlotAddr(
                    static_cast<std::uint32_t>(current_frame));
                result.outputs.push_back(
                    mem.snapshot(addr, kernel.layout.out_bytes));
            }
            const int next = step.resume_frame_value;
            if (next >= config.frames)
                break;
            current_frame = next;
            mem.hostWriteBlock(
                kernel.layout.inSlotAddr(
                    static_cast<std::uint32_t>(next)),
                inputs[static_cast<size_t>(next)]);
            mem.resetVersionedRange(
                kernel.layout.outSlotAddr(
                    static_cast<std::uint32_t>(next)),
                kernel.layout.out_bytes);
        }
        if (step.halted)
            break;
    }

    if (result.outputs.size() != result.golden.size()) {
        util::warn("functional run finished %zu of %zu frames",
                   result.outputs.size(), result.golden.size());
        result.golden.resize(result.outputs.size());
    }
    return result;
}

double
frameCycles(const kernels::Kernel &kernel, std::uint64_t seed)
{
    const util::SceneGenerator scene(kernel.width, kernel.height,
                                     kernel.scene, seed);
    const FrameCyclesKey key{seed,
                             kernel.program.code(),
                             kernel.init_blocks,
                             kernel.layout,
                             kernel.scratch_base,
                             kernel.scratch_bytes,
                             kernel.make_input(scene, 0)};
    double cycles = 0.0;
    if (frameCyclesMemo().find(key, &cycles))
        return cycles;
    FunctionalConfig cal;
    cal.frames = 1;
    cal.bits = 8;
    cal.seed = seed;
    cycles = runFunctional(kernel, cal).cyclesPerFrame();
    frameCyclesMemo().insert(key, cycles);
    return cycles;
}

} // namespace inc::sim
