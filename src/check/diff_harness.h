/**
 * @file
 * The differential fuzzing harness: N seeded trials through the full
 * co-simulator, each checked against the outage-free functional
 * reference and the structural invariants of incidental computing.
 *
 * Invariants checked per trial mode:
 *
 *   exact_recovery — with the noise model off and full-retention
 *     backups, a baseline (no roll-forward, no adoption) run at fixed
 *     bits must produce every completed frame bit-identical to a
 *     crash-free execution over the same input bytes. The primary check
 *     recomputes each completed frame from the input-ring content the
 *     lane actually observed; when that content still equals the
 *     pristine sensor frame, the output is additionally required to
 *     match the precomputed sim::Functional oracle frame.
 *
 *   bounded_error — under the full incidental machinery (roll-forward,
 *     SIMD adoption, history spawning) at dynamic bits in [minbits, 8],
 *     every produced output byte must stay within the program's static
 *     unit-error certificate: |out - golden| <= error_units *
 *     (2^(8-minbits) - 1). Trials pin the sensor input to a static
 *     frame so the bound is sound for lanes that resume across ring
 *     overwrites.
 *
 *   monotone_bits — order-preserving programs run crash-free at
 *     b = 2..8 must satisfy out_b <= out_{b+1} <= golden per byte
 *     (truncation only lowers inputs), with MSE non-increasing in b and
 *     bit-exact equality at b = 8.
 *
 *   rac_merge — DataMemory versioned-cell merges, replayed against a
 *     reference model: assemble() must match the model for each
 *     AssembleMode, re-merging an identical lane contribution must be
 *     idempotent, and write-through arbitration must agree with the
 *     model.
 *
 *   metrics (cross-cutting) — every trial that drives the co-simulator
 *     (exact_recovery, bounded_error) runs with an attached
 *     obs::Observer and, after its primary invariant passes, validates
 *     the cross-metric identities of obs/schema.h (backup/restore
 *     accounting, energy conservation, hot-counter cross-checks).
 *     Observation is non-perturbing by contract, so this rides along
 *     without changing the trial distribution or any result.
 *
 *   arena_recovery — the sweep journal's crash-consistency contract
 *     (src/runner/journal, DESIGN.md §12): a deterministic script binds
 *     a journal and records synthetic job results (failed, repeated
 *     and out-of-range ones among them); it is first dry-run to measure
 *     its log, then re-run with the log dying at a byte sampled from
 *     it. A record is durable exactly when its append returned true, so
 *     the reopened journal must hold exactly that binding, completed
 *     job set and result bytes, with the log cut back to its durable
 *     prefix. Every third trial additionally runs a mini 2-job sweep
 *     through a SweepJournal and requires the partially-journaled,
 *     recovered, resumed campaign to reproduce the uninterrupted
 *     campaign's per-job results and merged metrics byte-for-byte.
 *
 *   strategy_diff — the backup-strategy zoo's conformance contract
 *     (sim/strategy, DESIGN.md §14): a fuzzed co-simulator trial runs
 *     once per registered strategy (sim::allStrategies()) over the
 *     same spec, and every strategy's serialized SimResult must equal
 *     the `active` baseline byte-for-byte — strategies are an
 *     observation overlay and may never perturb the simulated
 *     trajectory. The overlay itself is then checked: the ckpt.*
 *     identities of obs/schema.h hold per strategy, and the
 *     freezer's dirty-word backup never writes more bytes than the
 *     full-image baseline.
 *
 *   fleet_merge — the fleet campaign service's shard/merge contract
 *     (src/fleet, DESIGN.md §15): a fuzzed mini-sweep is run un-sharded
 *     as the oracle, then split across 2 shards whose results travel
 *     the RESULT wire encoding (fuzzed delivery interleaving, fuzzed
 *     stream fragmentation) into a ResultFolder. The folded per-job
 *     serialized results, status fields and merged metrics JSON must
 *     equal the oracle's byte-for-byte. Every third trial folds
 *     shard 0 into a sweep journal, reopens it into a fresh folder (the
 *     coordinator's restart), which must hold exactly shard 0's ok
 *     jobs, and folds the remaining frames into that folder.
 *
 *   engine_diff (cross-cutting, opt-in via `fuzz --engine-diff`) — a
 *     co-simulator trial whose primary invariant passed re-runs under
 *     every other registered engine (nvp::allExecEngines(): the
 *     reference interpreter) and each run's serialized SimResult plus
 *     metrics JSON must equal the predecoded run byte-for-byte: the
 *     fast path may never drift from the semantic baseline, on any
 *     fuzzed program or mutated trace.
 *
 * A TrialSpec is plain data: everything a trial does is derived from it
 * deterministically, so any failure can be serialized into a repro
 * bundle, replayed bit-exactly, and minimized by bisection over its
 * trace mutations and program genome.
 */

#ifndef INC_CHECK_DIFF_HARNESS_H
#define INC_CHECK_DIFF_HARNESS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/trace_mutator.h"
#include "trace/power_trace.h"

namespace inc::check
{

enum class TrialMode : int
{
    exact_recovery = 0,
    bounded_error,
    monotone_bits,
    rac_merge,
    arena_recovery,
    strategy_diff,
    fleet_merge,
};

constexpr int kNumTrialModes = 7;

/** Test-only fault injection; proves the harness catches real bugs. */
enum class BugKind : int
{
    none = 0,
    /** Back up with log-shaped retention while the oracle assumes full
     *  retention: long outages decay AC state the exact-recovery
     *  invariant relies on. */
    leaky_backup,
};

/** Everything one trial does, as plain replayable data. */
struct TrialSpec
{
    std::size_t index = 0;
    std::uint64_t seed = 0; ///< trial master seed (also the trace seed)
    TrialMode mode = TrialMode::exact_recovery;
    int bits = 8;           ///< fixed bits (exact) or minbits (bounded)
    std::uint64_t program_seed = 0;
    int body_ops = -1;      ///< genome prefix length; -1 = full genome
    int profile = 1;        ///< trace::paperProfile index
    std::size_t samples = 6000;
    double frame_period = 50.0; ///< sensor period, 0.1 ms units
    std::vector<MutationOp> mutations;
    BugKind bug = BugKind::none;

    /**
     * Engine-equivalence invariant: after the primary invariant
     * passes, co-simulator trials re-run the same spec under every
     * other registered engine (the reference interpreter) and require
     * each run's serialized SimResult and metrics JSON to match the
     * predecoded run byte-for-byte (sim/result_io.h).
     */
    bool engine_diff = false;
};

/** First observed invariant violation of a trial (none if !violated). */
struct Divergence
{
    bool violated = false;
    std::string invariant; ///< "exact", "exact_oracle", "bounded", ...
    std::uint32_t frame = 0;
    std::size_t byte = 0;
    int expected = 0;
    int actual = 0;
    std::string detail;
};

/** One failing trial with its artifacts. */
struct TrialFailure
{
    TrialSpec spec;
    Divergence divergence;
    std::string bundle_dir;  ///< empty when no repro dir configured
    TrialSpec minimized;     ///< valid only when minimized_valid
    bool minimized_valid = false;
};

/** Harness configuration (the nvpsim `fuzz` flag surface). */
struct CheckConfig
{
    int trials = 100;
    std::uint64_t master_seed = 1;
    unsigned jobs = 0;          ///< worker threads; 0 = hardware default
    std::size_t trace_samples = 6000;
    std::string repro_dir;      ///< bundle output root; empty = no bundles
    bool minimize = false;
    BugKind inject = BugKind::none;
    bool engine_diff = false;   ///< enable TrialSpec::engine_diff on all trials

    /**
     * Comma-separated mode names (e.g. "arena_recovery" or
     * "exact_recovery,rac_merge"); empty = all modes. Expansion draws
     * candidate specs from the unfiltered stream and keeps the first
     * `trials` whose mode is allowed, so a filtered run executes
     * byte-identical specs to the ones an unfiltered run of the same
     * seed would produce (`fuzz --modes` on a repro seed is exact).
     */
    std::string mode_filter;
};

/** Aggregate outcome of a fuzzing run. */
struct CheckReport
{
    int trials = 0;
    std::array<int, kNumTrialModes> mode_counts{};
    std::vector<TrialFailure> failures;

    bool allOk() const { return failures.empty(); }
    std::string summary() const;
};

const char *modeName(TrialMode mode);
const char *bugName(BugKind bug);

/** Deterministic trial expansion: spec i depends only on master_seed,
 *  trace_samples and i, never on other trials or thread schedule. */
std::vector<TrialSpec> expandTrials(const CheckConfig &config);

/** The mutated power trace a trial runs on (pure in the spec). */
trace::PowerTrace buildTrace(const TrialSpec &spec);

/** Execute one trial; pure in the spec, safe to call concurrently. */
Divergence runTrial(const TrialSpec &spec);

/**
 * Write a self-contained repro bundle under @p dir: repro.txt
 * (key=value spec + divergence), program.s (disassembly), trace.csv
 * (the mutated trace) and mutations.txt. Returns @p dir, or "" on I/O
 * failure.
 */
std::string writeBundle(const std::string &dir, const TrialSpec &spec,
                        const Divergence &divergence);

/** Parse a bundle's repro.txt + mutations.txt back into a spec. */
bool loadBundle(const std::string &dir, TrialSpec *out);

/**
 * Shrink a failing spec: ddmin-style bisection over the mutation list,
 * then the shortest failing genome prefix. Returns the smallest spec
 * observed to still fail (the input spec itself in the worst case).
 */
TrialSpec minimizeTrial(const TrialSpec &spec);

/** Expand, execute in parallel, bundle and optionally minimize. */
CheckReport runCheck(const CheckConfig &config);

} // namespace inc::check

#endif // INC_CHECK_DIFF_HARNESS_H
