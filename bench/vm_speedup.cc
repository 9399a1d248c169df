/**
 * @file
 * Speed gate for the predecoded fast-path engine (DESIGN.md §11).
 *
 * One binary, one variant per registered engine selected by argv[1]
 * (any name from nvp::execEngineNames(): reference, predecoded): the
 * same steady-state core-step workload as micro_vm_speed's
 * BM_CoreStep, timed for a fixed instruction count over several
 * repetitions, printing the BEST (least-noisy) rate as a
 * machine-readable line:
 *
 *   vm_speedup variant=<engine> reps=R instructions=N \
 *       best_ns_per_instr=X
 *
 * bench/check_vm_speedup.sh runs the variants interleaved and fails
 * when reference_ns / predecoded_ns falls below its gate (1.5x by
 * default). Ratio gates are used instead of absolute ns/instr bounds
 * so the check is portable across CI machine generations. The gate
 * runs as a CI step, not a ctest — wall-clock ratios do not belong in
 * the correctness tier.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/kernel.h"
#include "nvp/core.h"
#include "nvp/memory.h"
#include "util/rng.h"

using namespace inc;

namespace
{

std::uint64_t
envCount(const char *name, std::uint64_t fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    return v > 0 ? v : fallback;
}

/** One timed pass of @p instructions core steps; ns/instr. */
double
timedPass(nvp::ExecEngine engine, std::uint64_t instructions)
{
    const kernels::Kernel kernel = kernels::makeKernel("sobel");
    nvp::DataMemory mem{util::Rng(1)};
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes * 4);
    nvp::CoreConfig cfg;
    cfg.engine = engine;
    nvp::Core core(&kernel.program, &mem, cfg, util::Rng(2));

    std::uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < instructions; ++i) {
        if (core.halted()) {
            core.clearHalted();
            core.setPc(0);
        }
        sink += static_cast<std::uint64_t>(core.step().cycles);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Keep the loop observable so the compiler cannot elide it.
    if (sink == 0)
        std::fputs("", stdout);
    return std::chrono::duration<double, std::nano>(elapsed).count() /
           static_cast<double>(instructions);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: vm_speedup %s\n",
                     nvp::execEngineNames().c_str());
        return 2;
    }
    const auto engine = nvp::execEngineFromName(argv[1]);
    if (!engine) {
        std::fprintf(stderr,
                     "vm_speedup: unknown engine '%s' (valid: %s)\n",
                     argv[1], nvp::execEngineNames().c_str());
        return 2;
    }

    const std::uint64_t instructions =
        envCount("INC_VM_BENCH_INSTRUCTIONS", 20000000);
    const std::uint64_t reps = envCount("INC_VM_BENCH_REPS", 5);

    double best = 0.0;
    for (std::uint64_t r = 0; r < reps; ++r) {
        const double ns = timedPass(*engine, instructions);
        if (r == 0 || ns < best)
            best = ns;
    }

    std::printf("vm_speedup variant=%s reps=%llu instructions=%llu "
                "best_ns_per_instr=%.4f\n",
                nvp::execEngineName(*engine),
                static_cast<unsigned long long>(reps),
                static_cast<unsigned long long>(instructions), best);
    return 0;
}
