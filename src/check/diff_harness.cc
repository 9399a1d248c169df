#include "check/diff_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "check/fleet_trial.h"
#include "check/oracle.h"
#include "check/program_fuzzer.h"
#include "check/recovery_trial.h"
#include "check/strategy_trial.h"
#include "isa/disassembler.h"
#include "nvp/core.h"
#include "nvp/memory.h"
#include "obs/observer.h"
#include "obs/report/report.h"
#include "obs/schema.h"
#include "runner/thread_pool.h"
#include "sim/functional.h"
#include "sim/result_io.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"

namespace inc::check
{

namespace
{

Divergence
byteMismatch(const std::string &invariant, std::uint32_t frame,
             std::size_t byte, int expected, int actual,
             const std::string &detail)
{
    Divergence d;
    d.violated = true;
    d.invariant = invariant;
    d.frame = frame;
    d.byte = byte;
    d.expected = expected;
    d.actual = actual;
    d.detail = detail;
    return d;
}

/**
 * The cross-cutting metrics invariant: a co-simulator trial replays
 * with an attached observer whose registry must satisfy the
 * cross-metric identities of obs/schema.h. Returns the first identity
 * violation as a Divergence (none when the registry is consistent).
 *
 * The same registry is then pushed through the report builder: the
 * energy-attribution rows of a RunReport must re-sum to
 * energy.consumed_nj within 1e-9 relative. That exercises the analysis
 * layer (obs/report) against every fuzzed workload, not just the
 * curated ones the unit tests cover. The split gauges only accumulate
 * when the obs counter sites are compiled in, so the check is gated
 * like the ledger identities in obs/schema.cc.
 */
Divergence
metricsDivergence(const obs::Observer &observer)
{
    const std::vector<std::string> problems =
        obs::verifySimMetricIdentities(observer.registry);
    if (!problems.empty()) {
        Divergence d;
        d.violated = true;
        d.invariant = "metrics";
        std::ostringstream detail;
        detail << problems.size() << " metric identit"
               << (problems.size() == 1 ? "y" : "ies")
               << " violated; first: " << problems.front();
        d.detail = detail.str();
        return d;
    }
#if INC_OBS_ENABLED
    const obs::RunReport report =
        obs::buildRunReport(observer.registry);
    double attributed = 0.0;
    for (const obs::AttributionRow &row : report.attribution)
        attributed += row.nj;
    const double tolerance =
        1e-9 * std::max(1.0, std::fabs(report.consumed_nj));
    if (std::fabs(attributed - report.consumed_nj) > tolerance ||
        !report.split_exact) {
        Divergence d;
        d.violated = true;
        d.invariant = "report";
        std::ostringstream detail;
        detail << "energy attribution rows sum to " << attributed
               << " nJ but energy.consumed_nj is " << report.consumed_nj
               << " nJ (split_exact="
               << (report.split_exact ? "true" : "false") << ")";
        d.detail = detail.str();
        return d;
    }
#endif
    return {};
}

/**
 * The engine-equivalence invariant: re-run @p spec's co-simulation
 * under every registered engine other than the one that produced
 * @p fast_result (the predecoded fast path) and compare each run's
 * serialized SimResult + metrics JSON against it. Any byte of
 * difference is a divergence (the first differing line is reported).
 */
Divergence
engineDiffDivergence(const kernels::Kernel &kernel,
                     const trace::PowerTrace &power,
                     const sim::SimConfig &fast_cfg,
                     const std::string &fast_result,
                     const obs::Observer &fast_obs)
{
    const std::string fast_json = fast_obs.registry.toJson();
    for (const nvp::ExecEngine engine : nvp::allExecEngines()) {
        if (engine == fast_cfg.core.engine)
            continue;
        sim::SimConfig other_cfg = fast_cfg;
        other_cfg.core.engine = engine;
        obs::Observer other_obs;
        other_cfg.obs = &other_obs;
        sim::SystemSimulator other_sim(kernel, &power, other_cfg);
        const std::string other_result =
            sim::serializeResult(other_sim.run());

        if (other_result != fast_result) {
            std::istringstream other_lines(other_result);
            std::istringstream fast_lines(fast_result);
            std::string other_line, fast_line;
            while (std::getline(other_lines, other_line) &&
                   std::getline(fast_lines, fast_line)) {
                if (other_line != fast_line)
                    break;
            }
            Divergence d;
            d.violated = true;
            d.invariant = "engine";
            d.detail = std::string("SimResult diverged between "
                                   "engines: ") +
                       nvp::execEngineName(engine) + " '" + other_line +
                       "' vs " +
                       nvp::execEngineName(fast_cfg.core.engine) +
                       " '" + fast_line + "'";
            return d;
        }
        if (other_obs.registry.toJson() != fast_json) {
            Divergence d;
            d.violated = true;
            d.invariant = "engine_metrics";
            d.detail =
                std::string("metrics JSON diverged between engines "
                            "(results agree): ") +
                nvp::execEngineName(engine) + " vs " +
                nvp::execEngineName(fast_cfg.core.engine);
            return d;
        }
    }
    return {};
}

/** Baseline controller: plain suspend/resume, exactly one lane. */
void
configureBaseline(sim::SimConfig &cfg)
{
    cfg.controller.roll_forward = false;
    cfg.controller.simd_adoption = false;
    cfg.controller.history_spawn = false;
    cfg.controller.force_full_simd = false;
    cfg.controller.process_newest_first = false;
    cfg.controller.auto_recompute_times = 0;
}

// ---- exact_recovery ---------------------------------------------------

Divergence
runExactTrial(const TrialSpec &spec)
{
    ProgramFuzzer fuzzer;
    FuzzedProgram fp = fuzzer.generate(spec.program_seed, 0, false,
                                       spec.body_ops);
    const core::FrameLayout layout = fp.kernel.layout;
    const trace::PowerTrace power = buildTrace(spec);

    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::fixed;
    cfg.bits.fixed_bits = spec.bits;
    configureBaseline(cfg);
    cfg.controller.backup_policy = spec.bug == BugKind::leaky_backup
                                       ? nvm::RetentionPolicy::log
                                       : nvm::RetentionPolicy::full;
    // Truncation at fixed bits is deterministic; ALU noise is not, and
    // would make bit-exact comparison meaningless.
    cfg.core.approx_alu = false;
    cfg.core.approx_mem = true;
    cfg.score_quality = false;
    cfg.frame_period_tenth_ms = spec.frame_period;
    cfg.seed = spec.seed;
    obs::Observer observer;
    cfg.obs = &observer; // non-perturbing; checked after the run

    const int max_frames =
        static_cast<int>(static_cast<double>(spec.samples) /
                         spec.frame_period) +
        4;
    Oracle oracle(fp.kernel, spec.bits, max_frames, spec.seed);
    util::SceneGenerator scene(fp.kernel.width, fp.kernel.height,
                               fp.kernel.scene, spec.seed);

    sim::SystemSimulator sim(fp.kernel, &power, cfg);
    Divergence div;
    sim.controller().setCompletionCallback(
        [&](const core::FrameCompletion &c) {
            if (div.violated)
                return;
            nvp::DataMemory &mem = sim.memory();
            const auto out =
                mem.snapshot(layout.outSlotAddr(c.frame), layout.out_bytes);
            const auto in_now =
                mem.snapshot(layout.inSlotAddr(c.frame), layout.in_bytes);

            // Primary invariant: the completed frame must equal a
            // crash-free exact execution over the input bytes the lane
            // actually locked in its ring slot.
            const auto expected =
                exactFrameOutput(fp.kernel, in_now, spec.bits);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i] != expected[i]) {
                    std::ostringstream why;
                    why << "recovery diverged from crash-free replay "
                           "(lane "
                        << c.lane << ", bits " << c.bits << ")";
                    div = byteMismatch("exact", c.frame, i, expected[i],
                                       out[i], why.str());
                    return;
                }
            }

            // Cross-check against the precomputed functional oracle
            // whenever the slot still holds the pristine sensor frame.
            if (c.frame >= oracle.frames())
                return;
            if (in_now !=
                fp.kernel.make_input(scene, static_cast<int>(c.frame)))
                return;
            const auto &ref = oracle.exact(c.frame);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i] != ref[i]) {
                    div = byteMismatch(
                        "exact_oracle", c.frame, i, ref[i], out[i],
                        "completed frame disagrees with sim::Functional");
                    return;
                }
            }
        });
    const sim::SimResult result = sim.run();
    if (!div.violated)
        div = metricsDivergence(observer);
    if (!div.violated && spec.engine_diff) {
        div = engineDiffDivergence(fp.kernel, power, cfg,
                                   sim::serializeResult(result),
                                   observer);
    }
    return div;
}

// ---- bounded_error ----------------------------------------------------

Divergence
runBoundedTrial(const TrialSpec &spec)
{
    const int unit_error = (1 << (8 - spec.bits)) - 1;
    ProgramFuzzer fuzzer;
    FuzzedProgram fp = fuzzer.generate(spec.program_seed, unit_error,
                                       false, spec.body_ops);
    // Pin the sensor to a static frame: lanes that resume across input
    // ring overwrites then still compute over the same bytes, which is
    // what makes the per-byte bound sound under adoption and history
    // spawning (see diff_harness.h).
    fp.kernel.make_input = [](const util::SceneGenerator &s, int) {
        return s.frame(0).data();
    };
    const core::FrameLayout layout = fp.kernel.layout;
    const trace::PowerTrace power = buildTrace(spec);

    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = spec.bits;
    cfg.bits.max_bits = 8;
    // Full incidental machinery (the ControllerConfig defaults).
    cfg.controller.backup_policy = nvm::RetentionPolicy::full;
    cfg.core.approx_alu = true;
    cfg.core.approx_mem = true;
    cfg.score_quality = false;
    cfg.frame_period_tenth_ms = spec.frame_period;
    cfg.seed = spec.seed;
    obs::Observer observer;
    cfg.obs = &observer; // non-perturbing; checked after the run

    Oracle oracle(fp.kernel, 8, 1, spec.seed);
    const std::vector<std::uint8_t> &golden = oracle.golden(0);
    const int bound = fp.error_units * unit_error;

    sim::SystemSimulator sim(fp.kernel, &power, cfg);
    Divergence div;
    sim.controller().setCompletionCallback(
        [&](const core::FrameCompletion &c) {
            if (div.violated)
                return;
            nvp::DataMemory &mem = sim.memory();
            const std::uint32_t addr = layout.outSlotAddr(c.frame);
            const auto out = mem.snapshot(addr, layout.out_bytes);
            const auto mask = mem.precisionMask(addr, layout.out_bytes);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (!mask[i])
                    continue;
                const int err = std::abs(static_cast<int>(out[i]) -
                                         static_cast<int>(golden[i]));
                if (err > bound) {
                    std::ostringstream why;
                    why << "|out-golden|=" << err << " > "
                        << fp.error_units << " units x " << unit_error
                        << " (minbits " << spec.bits << ", lane "
                        << c.lane << ", bits " << c.bits << ")";
                    div = byteMismatch("bounded", c.frame, i, golden[i],
                                       out[i], why.str());
                    return;
                }
            }
        });
    const sim::SimResult result = sim.run();
    if (!div.violated)
        div = metricsDivergence(observer);
    if (!div.violated && spec.engine_diff) {
        div = engineDiffDivergence(fp.kernel, power, cfg,
                                   sim::serializeResult(result),
                                   observer);
    }
    return div;
}

// ---- monotone_bits ----------------------------------------------------

Divergence
runMonotoneTrial(const TrialSpec &spec)
{
    ProgramFuzzer fuzzer;
    const FuzzedProgram fp = fuzzer.generate(spec.program_seed, 0, true,
                                             spec.body_ops);
    constexpr int kFrames = 3;

    std::vector<std::vector<std::uint8_t>> prev_outputs;
    double prev_mse = 0.0;
    for (int b = 2; b <= 8; ++b) {
        sim::FunctionalConfig fc;
        fc.frames = kFrames;
        fc.bits = b;
        fc.approx_alu = false; // truncation-only, by construction
        fc.approx_mem = true;
        fc.seed = spec.seed;
        const sim::FunctionalResult res =
            sim::runFunctional(fp.kernel, fc);

        double mse_sum = 0.0;
        for (std::size_t f = 0; f < res.outputs.size(); ++f) {
            const auto &out = res.outputs[f];
            const auto &gold = res.golden[f];
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i] > gold[i]) {
                    std::ostringstream why;
                    why << "monotone body exceeded golden at bits " << b;
                    return byteMismatch("monotone",
                                        static_cast<std::uint32_t>(f), i,
                                        gold[i], out[i], why.str());
                }
                if (b == 8 && out[i] != gold[i]) {
                    return byteMismatch(
                        "monotone", static_cast<std::uint32_t>(f), i,
                        gold[i], out[i],
                        "8-bit run must be bit-exact to golden");
                }
                if (!prev_outputs.empty() &&
                    prev_outputs[f][i] > out[i]) {
                    std::ostringstream why;
                    why << "output fell from bits " << b - 1 << " to "
                        << b;
                    return byteMismatch("monotone",
                                        static_cast<std::uint32_t>(f), i,
                                        prev_outputs[f][i], out[i],
                                        why.str());
                }
                const double d = static_cast<double>(gold[i]) -
                                 static_cast<double>(out[i]);
                mse_sum += d * d;
            }
        }
        // Per-byte ordering implies this, but the quality form is the
        // invariant the issue states: MSE non-increasing in minbits.
        if (!prev_outputs.empty() && mse_sum > prev_mse + 1e-9) {
            std::ostringstream why;
            why << "MSE rose from " << prev_mse << " to " << mse_sum
                << " between bits " << b - 1 << " and " << b;
            return byteMismatch("monotone", 0, 0, 0, 0, why.str());
        }
        prev_outputs = res.outputs;
        prev_mse = mse_sum;
    }
    return {};
}

// ---- rac_merge --------------------------------------------------------

/** Reference model of DataMemory's versioned cells + assemble(). */
struct RacModel
{
    struct Cell
    {
        int main = 0;
        int main_prec = 0;
        std::array<int, nvp::DataMemory::kMaxVersions> value{};
        std::array<int, nvp::DataMemory::kMaxVersions> prec{};
        std::array<int, nvp::DataMemory::kMaxVersions> merged_value{};
        std::uint8_t written = 0;
        std::uint8_t merged = 0;
    };

    std::vector<Cell> cells;
    bool write_through = false;

    explicit RacModel(std::uint32_t len, bool wt)
        : cells(len), write_through(wt)
    {
    }

    void store(int lane, std::uint32_t off, int value, int bits)
    {
        Cell &c = cells[off];
        if (lane == 0) {
            c.main = value;
            c.main_prec = bits;
            return;
        }
        c.value[static_cast<std::size_t>(lane)] = value;
        c.prec[static_cast<std::size_t>(lane)] = bits;
        c.written |= static_cast<std::uint8_t>(1u << lane);
        if (write_through && bits >= c.main_prec) {
            c.main = value;
            c.main_prec = bits;
        }
    }

    void assemble(isa::AssembleMode mode)
    {
        for (Cell &c : cells) {
            int value = c.main;
            int prec = c.main_prec;
            for (int lane = 1; lane < nvp::DataMemory::kMaxVersions;
                 ++lane) {
                const auto bit =
                    static_cast<std::uint8_t>(1u << lane);
                if (!(c.written & bit))
                    continue;
                const int lv = c.value[static_cast<std::size_t>(lane)];
                const int lp = c.prec[static_cast<std::size_t>(lane)];
                switch (mode) {
                  case isa::AssembleMode::higherbits:
                    if (lp > prec) {
                        value = lv;
                        prec = lp;
                    }
                    break;
                  case isa::AssembleMode::sum: {
                    // Delta-merge: replace this lane's previously
                    // merged contribution instead of re-adding it, so
                    // re-merging an identical frame is idempotent.
                    const int before =
                        (c.merged & bit)
                            ? c.merged_value[static_cast<std::size_t>(
                                  lane)]
                            : 0;
                    value = std::clamp(value + lv - before, 0, 255);
                    c.merged_value[static_cast<std::size_t>(lane)] = lv;
                    c.merged |= bit;
                    prec = std::max(prec, lp);
                    break;
                  }
                  case isa::AssembleMode::max:
                    value = std::max(value, lv);
                    prec = std::max(prec, lp);
                    break;
                  case isa::AssembleMode::min:
                    value = std::min(value, lv);
                    prec = std::max(prec, lp);
                    break;
                }
            }
            c.written = 0;
            c.main = value;
            c.main_prec = prec;
        }
    }
};

Divergence
runRacTrial(const TrialSpec &spec)
{
    util::Rng rng(spec.seed);
    nvp::DataMemory mem(rng.split());

    const bool write_through = rng.nextBounded(2) != 0;
    const std::uint32_t base =
        256 + static_cast<std::uint32_t>(rng.nextBounded(512));
    const std::uint32_t len =
        16 + static_cast<std::uint32_t>(rng.nextBounded(48));
    mem.addVersionedRegion(base, len, write_through);
    RacModel model(len, write_through);

    const auto mode = static_cast<isa::AssembleMode>(rng.nextBounded(4));
    std::ostringstream ctx;
    ctx << "mode " << static_cast<int>(mode) << ", write_through "
        << write_through << ", len " << len;

    struct StoreOp
    {
        int lane;
        std::uint32_t off;
        int value;
        int bits;
    };
    std::vector<StoreOp> lane_stores;
    const int n_stores = 40 + static_cast<int>(rng.nextBounded(80));
    for (int i = 0; i < n_stores; ++i) {
        StoreOp op;
        op.lane = static_cast<int>(rng.nextBounded(4));
        op.off = static_cast<std::uint32_t>(rng.nextBounded(len));
        op.value = static_cast<int>(rng.nextBounded(256));
        op.bits = 1 + static_cast<int>(rng.nextBounded(8));
        mem.store8(op.lane, base + op.off,
                   static_cast<std::uint8_t>(op.value), op.bits, false);
        model.store(op.lane, op.off, op.value, op.bits);
        if (op.lane > 0)
            lane_stores.push_back(op);
    }

    auto compare = [&](const char *phase) -> Divergence {
        const auto snap = mem.snapshot(base, len);
        for (std::uint32_t i = 0; i < len; ++i) {
            if (snap[i] != model.cells[i].main ||
                mem.precisionAt(base + i) != model.cells[i].main_prec) {
                std::ostringstream why;
                why << "assemble diverged from reference model ("
                    << phase << "; " << ctx.str() << "; prec "
                    << mem.precisionAt(base + i) << " vs model "
                    << model.cells[i].main_prec << ")";
                return byteMismatch("rac", 0, i, model.cells[i].main,
                                    snap[i], why.str());
            }
        }
        return {};
    };

    mem.assemble(base, len, mode);
    model.assemble(mode);
    Divergence div = compare("first merge");
    if (div.violated)
        return div;
    const auto merged_once = mem.snapshot(base, len);

    // Re-adoption: the same lanes re-produce the same values (a
    // recompute pass re-running an identical frame), then merge again.
    for (const StoreOp &op : lane_stores) {
        mem.store8(op.lane, base + op.off,
                   static_cast<std::uint8_t>(op.value), op.bits, false);
        model.store(op.lane, op.off, op.value, op.bits);
    }
    mem.assemble(base, len, mode);
    model.assemble(mode);
    div = compare("re-merge");
    if (div.violated)
        return div;

    // Idempotence proper: without write-through replacement in between,
    // merging identical contributions must leave main untouched.
    if (!write_through) {
        const auto merged_twice = mem.snapshot(base, len);
        for (std::uint32_t i = 0; i < len; ++i) {
            if (merged_twice[i] != merged_once[i]) {
                std::ostringstream why;
                why << "re-merging identical lane values changed main ("
                    << ctx.str() << ")";
                return byteMismatch("rac", 0, i, merged_once[i],
                                    merged_twice[i], why.str());
            }
        }
    }

    // Fresh contributions after the re-merge stay mode-consistent.
    for (int i = 0; i < 16; ++i) {
        StoreOp op;
        op.lane = 1 + static_cast<int>(rng.nextBounded(3));
        op.off = static_cast<std::uint32_t>(rng.nextBounded(len));
        op.value = static_cast<int>(rng.nextBounded(256));
        op.bits = 1 + static_cast<int>(rng.nextBounded(8));
        mem.store8(op.lane, base + op.off,
                   static_cast<std::uint8_t>(op.value), op.bits, false);
        model.store(op.lane, op.off, op.value, op.bits);
    }
    mem.assemble(base, len, mode);
    model.assemble(mode);
    return compare("fresh contributions");
}

} // namespace

// ---- public API -------------------------------------------------------

const char *
modeName(TrialMode mode)
{
    switch (mode) {
      case TrialMode::exact_recovery: return "exact_recovery";
      case TrialMode::bounded_error: return "bounded_error";
      case TrialMode::monotone_bits: return "monotone_bits";
      case TrialMode::rac_merge: return "rac_merge";
      case TrialMode::arena_recovery: return "arena_recovery";
      case TrialMode::strategy_diff: return "strategy_diff";
      case TrialMode::fleet_merge: return "fleet_merge";
    }
    return "unknown";
}

const char *
bugName(BugKind bug)
{
    switch (bug) {
      case BugKind::none: return "none";
      case BugKind::leaky_backup: return "leaky_backup";
    }
    return "unknown";
}

namespace
{

/** The mode named @p name (as modeName() spells it); false if none. */
bool
modeFromName(const std::string &name, TrialMode *out)
{
    for (int m = 0; m < kNumTrialModes; ++m) {
        if (name == modeName(static_cast<TrialMode>(m))) {
            *out = static_cast<TrialMode>(m);
            return true;
        }
    }
    return false;
}

/** Every mode name, comma-separated, in enum order. */
std::string
modeNames()
{
    std::string out;
    for (int m = 0; m < kNumTrialModes; ++m) {
        if (m > 0)
            out += ", ";
        out += modeName(static_cast<TrialMode>(m));
    }
    return out;
}

/** Parse CheckConfig::mode_filter into a per-mode allow mask; fatal on
 *  an unknown mode name. Empty filter allows everything. */
std::array<bool, kNumTrialModes>
parseModeFilter(const std::string &filter)
{
    std::array<bool, kNumTrialModes> allowed{};
    if (filter.empty()) {
        allowed.fill(true);
        return allowed;
    }
    std::size_t pos = 0;
    while (pos <= filter.size()) {
        std::size_t comma = filter.find(',', pos);
        if (comma == std::string::npos)
            comma = filter.size();
        const std::string name = filter.substr(pos, comma - pos);
        TrialMode mode;
        if (!modeFromName(name, &mode))
            util::fatal("unknown trial mode '%s' in --modes (valid: %s)",
                        name.c_str(), modeNames().c_str());
        allowed[static_cast<std::size_t>(mode)] = true;
        pos = comma + 1;
    }
    return allowed;
}

} // namespace

std::vector<TrialSpec>
expandTrials(const CheckConfig &config)
{
    const std::array<bool, kNumTrialModes> allowed =
        parseModeFilter(config.mode_filter);

    util::Rng master(config.master_seed);
    std::vector<TrialSpec> specs;
    specs.reserve(static_cast<std::size_t>(std::max(0, config.trials)));
    // Candidates come off the unfiltered stream; a mode filter keeps
    // the first `trials` allowed ones, so a filtered run executes
    // byte-identical specs to the matching subset of an unfiltered run
    // with the same seed. Every mode has >= 8% mass, so the candidate
    // cap is unreachable with a non-empty allow mask.
    const long long max_candidates =
        static_cast<long long>(std::max(0, config.trials)) * 200 + 200;
    for (long long i = 0;
         static_cast<int>(specs.size()) < config.trials &&
         i < max_candidates;
         ++i) {
        TrialSpec s;
        s.index = static_cast<std::size_t>(i);
        s.seed = master.next();
        // Everything below must draw in a fixed order from the trial's
        // own stream so specs are independent of each other.
        util::Rng t(s.seed);
        const std::uint64_t u = t.nextBounded(100);
        if (u < 34)
            s.mode = TrialMode::exact_recovery;
        else if (u < 51)
            s.mode = TrialMode::bounded_error;
        else if (u < 62)
            s.mode = TrialMode::monotone_bits;
        else if (u < 70)
            s.mode = TrialMode::rac_merge;
        else if (u < 78)
            s.mode = TrialMode::arena_recovery;
        else if (u < 89)
            s.mode = TrialMode::strategy_diff;
        else
            s.mode = TrialMode::fleet_merge;
        s.program_seed = t.next();
        s.profile = 1 + static_cast<int>(t.nextBounded(5));
        s.samples = config.trace_samples;
        s.frame_period = static_cast<double>(t.nextRange(30, 90));
        if (s.mode == TrialMode::exact_recovery) {
            constexpr int kBitChoices[] = {8, 8, 6, 4, 2};
            s.bits = kBitChoices[t.nextBounded(5)];
        } else if (s.mode == TrialMode::bounded_error) {
            s.bits = 4 + static_cast<int>(t.nextBounded(3));
        }
        const int n_mut = 1 + static_cast<int>(t.nextBounded(6));
        s.mutations = TraceMutator::randomOps(t, s.samples, n_mut);
        if (s.mode == TrialMode::exact_recovery)
            s.bug = config.inject;
        s.engine_diff = config.engine_diff;
        if (!allowed[static_cast<std::size_t>(s.mode)])
            continue;
        specs.push_back(std::move(s));
    }
    return specs;
}

trace::PowerTrace
buildTrace(const TrialSpec &spec)
{
    trace::TraceGenerator gen(trace::paperProfile(spec.profile),
                              spec.seed);
    return TraceMutator::apply(gen.generate(spec.samples),
                               spec.mutations);
}

Divergence
runTrial(const TrialSpec &spec)
{
    switch (spec.mode) {
      case TrialMode::exact_recovery: return runExactTrial(spec);
      case TrialMode::bounded_error: return runBoundedTrial(spec);
      case TrialMode::monotone_bits: return runMonotoneTrial(spec);
      case TrialMode::rac_merge: return runRacTrial(spec);
      case TrialMode::arena_recovery: return runArenaTrial(spec);
      case TrialMode::strategy_diff: return runStrategyTrial(spec);
      case TrialMode::fleet_merge: return runFleetMergeTrial(spec);
    }
    Divergence d;
    d.violated = true;
    d.invariant = "harness";
    d.detail = "unknown trial mode";
    return d;
}

std::string
writeBundle(const std::string &dir, const TrialSpec &spec,
            const Divergence &divergence)
{
    if (!util::ensureDir(dir))
        return "";

    {
        std::ofstream repro(dir + "/repro.txt");
        if (!repro)
            return "";
        repro.precision(17);
        repro << "index=" << spec.index << "\n"
              << "seed=" << spec.seed << "\n"
              << "mode=" << static_cast<int>(spec.mode) << "\n"
              << "mode_name=" << modeName(spec.mode) << "\n"
              << "bits=" << spec.bits << "\n"
              << "program_seed=" << spec.program_seed << "\n"
              << "body_ops=" << spec.body_ops << "\n"
              << "profile=" << spec.profile << "\n"
              << "samples=" << spec.samples << "\n"
              << "frame_period=" << spec.frame_period << "\n"
              << "bug=" << static_cast<int>(spec.bug) << "\n"
              << "bug_name=" << bugName(spec.bug) << "\n"
              << "engine_diff=" << (spec.engine_diff ? 1 : 0) << "\n"
              << "violated=" << (divergence.violated ? 1 : 0) << "\n"
              << "invariant=" << divergence.invariant << "\n"
              << "frame=" << divergence.frame << "\n"
              << "byte=" << divergence.byte << "\n"
              << "expected=" << divergence.expected << "\n"
              << "actual=" << divergence.actual << "\n"
              << "detail=" << divergence.detail << "\n";
    }
    {
        std::ofstream muts(dir + "/mutations.txt");
        muts << TraceMutator::serialize(spec.mutations);
    }
    {
        ProgramFuzzer fuzzer;
        const FuzzedProgram fp = fuzzer.generate(
            spec.program_seed,
            spec.mode == TrialMode::bounded_error
                ? (1 << (8 - spec.bits)) - 1
                : 0,
            spec.mode == TrialMode::monotone_bits, spec.body_ops);
        std::ofstream listing(dir + "/program.s");
        listing << "; " << fp.kernel.name << "  " << fp.kernel.width
                << "x" << fp.kernel.height << "  error_units "
                << fp.error_units << "\n"
                << isa::disassemble(fp.kernel.program);
    }
    if (spec.mode == TrialMode::exact_recovery ||
        spec.mode == TrialMode::bounded_error) {
        buildTrace(spec).saveCsv(dir + "/trace.csv");
    }
    return dir;
}

bool
loadBundle(const std::string &dir, TrialSpec *out)
{
    std::ifstream repro(dir + "/repro.txt");
    if (!repro)
        return false;
    TrialSpec s;
    std::map<std::string, std::string> kv;
    std::string line;
    while (std::getline(repro, line)) {
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    auto u64 = [&](const char *key, std::uint64_t fallback) {
        auto it = kv.find(key);
        return it == kv.end() ? fallback
                              : std::strtoull(it->second.c_str(),
                                              nullptr, 10);
    };
    auto i32 = [&](const char *key, int fallback) {
        auto it = kv.find(key);
        return it == kv.end()
                   ? fallback
                   : static_cast<int>(
                         std::strtol(it->second.c_str(), nullptr, 10));
    };
    s.index = static_cast<std::size_t>(u64("index", 0));
    s.seed = u64("seed", 0);
    // Resolve the mode by name: enum values shift when a mode is
    // retired, names do not. An unknown name fails the load.
    if (const auto it = kv.find("mode_name"); it != kv.end()) {
        if (!modeFromName(it->second, &s.mode))
            return false;
    } else {
        s.mode = static_cast<TrialMode>(i32("mode", 0));
    }
    s.bits = i32("bits", 8);
    s.program_seed = u64("program_seed", 0);
    s.body_ops = i32("body_ops", -1);
    s.profile = i32("profile", 1);
    s.samples = static_cast<std::size_t>(u64("samples", 6000));
    if (auto it = kv.find("frame_period"); it != kv.end())
        s.frame_period = std::strtod(it->second.c_str(), nullptr);
    s.bug = static_cast<BugKind>(i32("bug", 0));
    s.engine_diff = i32("engine_diff", 0) != 0;

    std::ifstream muts(dir + "/mutations.txt");
    if (muts) {
        std::ostringstream text;
        text << muts.rdbuf();
        s.mutations = TraceMutator::deserialize(text.str());
    }
    *out = s;
    return true;
}

TrialSpec
minimizeTrial(const TrialSpec &spec)
{
    TrialSpec best = spec;
    if (!runTrial(best).violated)
        return best; // not reproducible here; nothing to shrink against

    // ddmin over the mutation list: try dropping large chunks first,
    // restarting whenever anything was removed successfully.
    bool progress = true;
    while (progress && !best.mutations.empty()) {
        progress = false;
        const std::size_t n = best.mutations.size();
        for (std::size_t chunk = n; chunk >= 1 && !progress;
             chunk /= 2) {
            for (std::size_t start = 0;
                 start < best.mutations.size() && !progress;
                 start += chunk) {
                TrialSpec candidate = best;
                const auto first =
                    candidate.mutations.begin() +
                    static_cast<std::ptrdiff_t>(start);
                const auto last =
                    candidate.mutations.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(start + chunk,
                                 candidate.mutations.size()));
                candidate.mutations.erase(first, last);
                if (runTrial(candidate).violated) {
                    best = std::move(candidate);
                    progress = true;
                }
            }
        }
    }

    // Shortest failing genome prefix (shrink-by-truncation).
    int full = best.body_ops;
    if (full < 0)
        full = ProgramFuzzer().generate(best.program_seed).body_ops;
    for (int ops = 0; ops < full; ++ops) {
        TrialSpec candidate = best;
        candidate.body_ops = ops;
        if (runTrial(candidate).violated) {
            best = std::move(candidate);
            break;
        }
    }
    if (best.body_ops < 0)
        best.body_ops = full;
    return best;
}

CheckReport
runCheck(const CheckConfig &config)
{
    const std::vector<TrialSpec> specs = expandTrials(config);
    std::vector<Divergence> divs(specs.size());

    {
        runner::ThreadPool pool(config.jobs);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            pool.submit([&specs, &divs, i] {
                // Each task owns slot i exclusively; pool tasks must
                // not throw.
                try {
                    divs[i] = runTrial(specs[i]);
                } catch (const std::exception &e) {
                    divs[i].violated = true;
                    divs[i].invariant = "exception";
                    divs[i].detail = e.what();
                } catch (...) {
                    divs[i].violated = true;
                    divs[i].invariant = "exception";
                    divs[i].detail = "unknown exception";
                }
            });
        }
        pool.wait();
    }

    CheckReport report;
    report.trials = static_cast<int>(specs.size());
    for (const TrialSpec &s : specs)
        ++report.mode_counts[static_cast<std::size_t>(s.mode)];

    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!divs[i].violated)
            continue;
        TrialFailure failure;
        failure.spec = specs[i];
        failure.divergence = divs[i];
        if (!config.repro_dir.empty()) {
            util::ensureDir(config.repro_dir);
            failure.bundle_dir = writeBundle(
                config.repro_dir + "/trial_" + std::to_string(i),
                specs[i], divs[i]);
        }
        if (config.minimize) {
            failure.minimized = minimizeTrial(specs[i]);
            failure.minimized_valid = true;
            if (!failure.bundle_dir.empty()) {
                writeBundle(failure.bundle_dir + "/minimized",
                            failure.minimized,
                            runTrial(failure.minimized));
            }
        }
        report.failures.push_back(std::move(failure));
    }
    return report;
}

std::string
CheckReport::summary() const
{
    std::ostringstream out;
    out << trials << " trials (";
    for (int m = 0; m < kNumTrialModes; ++m) {
        out << (m > 0 ? " " : "") << modeName(static_cast<TrialMode>(m))
            << "=" << mode_counts[static_cast<std::size_t>(m)];
    }
    out << "), " << failures.size() << " violation"
        << (failures.size() == 1 ? "" : "s");
    for (const TrialFailure &f : failures) {
        out << "\n  trial " << f.spec.index << " seed=" << f.spec.seed
            << " mode=" << modeName(f.spec.mode)
            << " invariant=" << f.divergence.invariant << " frame="
            << f.divergence.frame << " byte=" << f.divergence.byte
            << ": " << f.divergence.detail;
        if (f.minimized_valid) {
            out << "\n    minimized: mutations="
                << f.minimized.mutations.size()
                << " body_ops=" << f.minimized.body_ops;
        }
    }
    return out.str();
}

} // namespace inc::check
