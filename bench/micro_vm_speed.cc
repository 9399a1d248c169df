/**
 * Microbenchmarks (google-benchmark) of the simulation substrate:
 * executor stepping, SIMD-lane stepping, trace synthesis, assembly and
 * the full co-simulation loop. These guard the simulator's own
 * performance, not the paper's results.
 */

#include <benchmark/benchmark.h>

#include "isa/assembler.h"
#include "kernels/kernel.h"
#include "obs/observer.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace
{

/** Default engine (predecoded since DESIGN.md §11). */
void
BM_CoreStep(benchmark::State &state)
{
    const auto kernel = kernels::makeKernel("sobel");
    nvp::DataMemory mem{util::Rng(1)};
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes * 4);
    nvp::Core core(&kernel.program, &mem, {}, util::Rng(2));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core.step());
        ++instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CoreStep);

/** The always-decode baseline interpreter, for the §11 speedup ratio.
 *  DESIGN.md §11 states that ratio end to end, from paired `nvpsim
 *  sweep` runs against `--engine reference`; this variant shows the
 *  per-step ratio in the ordinary benchmark listing. */
void
BM_CoreStepReference(benchmark::State &state)
{
    const auto kernel = kernels::makeKernel("sobel");
    nvp::DataMemory mem{util::Rng(1)};
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes * 4);
    nvp::CoreConfig cfg;
    cfg.engine = nvp::ExecEngine::reference;
    nvp::Core core(&kernel.program, &mem, cfg, util::Rng(2));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core.step());
        ++instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CoreStepReference);

/**
 * Same loop with obs hot counters attached (the worst case: every
 * null-check taken AND the increment executed). BM_CoreStep above is
 * the "enabled but idle" case; the compiled-out baseline lives in
 * bench/obs_overhead.cc, which rebuilds the interpreter with
 * INC_OBS_ENABLED=0 — a macro this one binary cannot toggle.
 */
void
BM_CoreStepObsCounters(benchmark::State &state)
{
    const auto kernel = kernels::makeKernel("sobel");
    nvp::DataMemory mem{util::Rng(1)};
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes * 4);
    nvp::Core core(&kernel.program, &mem, {}, util::Rng(2));
    obs::Observer observer;
    core.setObsCounters(&observer.core);
    mem.setObsCounters(&observer.mem);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core.step());
        ++instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CoreStepObsCounters);

void
BM_CoreStepFourLanes(benchmark::State &state)
{
    const auto kernel = kernels::makeKernel("sobel");
    nvp::DataMemory mem{util::Rng(1)};
    mem.addVersionedRegion(kernel.layout.out_base,
                           kernel.layout.out_bytes * 4);
    nvp::Core core(&kernel.program, &mem, {}, util::Rng(2));
    nvp::RegSnapshot regs{};
    for (int lane = 1; lane < nvp::kMaxLanes; ++lane)
        core.activateLane(lane, regs, 4,
                          static_cast<std::uint16_t>(lane));
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core.step());
        ++instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions * 4));
}
BENCHMARK(BM_CoreStepFourLanes);

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        trace::TraceGenerator gen(trace::paperProfile(1), 42);
        benchmark::DoNotOptimize(gen.generate(10000));
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TraceGeneration);

void
BM_Assemble(benchmark::State &state)
{
    const std::string source = R"(
        acen 1
        ldi r1, 42
    loop:
        addi r1, r1, -1
        min r2, r1, r3
        st8 r2, 4(r1)
        bne r1, r0, loop
        halt
    )";
    for (auto _ : state)
        benchmark::DoNotOptimize(isa::assemble(source));
}
BENCHMARK(BM_Assemble);

void
BM_SystemSimSecond(benchmark::State &state)
{
    trace::TraceGenerator gen(trace::paperProfile(2), 7);
    const auto trace = gen.generate(10000); // 1 s of harvester time
    for (auto _ : state) {
        sim::SimConfig cfg;
        cfg.bits.mode = approx::ApproxMode::dynamic;
        cfg.score_quality = false;
        sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                               cfg);
        benchmark::DoNotOptimize(s.run());
    }
}
BENCHMARK(BM_SystemSimSecond)->Unit(benchmark::kMillisecond);

/** Full co-simulation with an attached observer + tracer — bounds the
 *  cost of `nvpsim run --metrics --trace-out`. */
void
BM_SystemSimSecondObserved(benchmark::State &state)
{
    trace::TraceGenerator gen(trace::paperProfile(2), 7);
    const auto trace = gen.generate(10000); // 1 s of harvester time
    for (auto _ : state) {
        obs::Observer observer;
        obs::EventTracer tracer;
        observer.tracer = &tracer;
        sim::SimConfig cfg;
        cfg.bits.mode = approx::ApproxMode::dynamic;
        cfg.score_quality = false;
        cfg.obs = &observer;
        sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                               cfg);
        benchmark::DoNotOptimize(s.run());
    }
}
BENCHMARK(BM_SystemSimSecondObserved)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
