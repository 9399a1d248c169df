/**
 * @file
 * Perf-trajectory snapshot harness (bench/snapshot).
 *
 * Runs a pinned kernel x profile suite and emits BENCH_10.json: per-entry
 * wall time, instructions/sec, energy-per-frame, quality, and the run
 * report digest (obs::reportDigest over the canonical report JSON), plus
 * an aggregate throughput figure. Committed snapshots (BENCH_*.json at
 * the repo root, numbered by PR) form the performance trajectory of the
 * codebase; bench/check_snapshot.sh regenerates a fresh snapshot and
 * fails when throughput regressed by more than the gate (default 10 %)
 * against the newest committed one.
 *
 * In addition to the pinned suite, the flagship entry is re-run under
 * every registered execution engine (nvp::allExecEngines(), DESIGN.md
 * §11) as `<name>@<engine>` entries. Those rows are informative —
 * they show each engine's sim-level throughput — and are EXCLUDED from
 * the gated aggregate so the trajectory stays comparable with snapshots
 * taken before the engine matrix existed. Their report digests must be
 * identical to the base entry's (engines are bit-identical by contract);
 * a mismatch is fatal, making every snapshot run an engine-equivalence
 * check too.
 *
 * The flagship entry is also re-run under every registered backup
 * strategy (sim::allStrategies(), DESIGN.md §14) as `<name>@<strategy>`
 * rows, likewise excluded from the gated aggregate. Strategies are an
 * observation overlay — a crash-free run must be bit-identical across
 * them — so each strategy row's serialized SimResult is compared
 * against the base entry's (the report digests legitimately differ:
 * each strategy exports its own ckpt.* counters). The rows carry the
 * per-strategy backup-traffic figures (ckpt_backup_bytes/events); the
 * related-work claim that dirty-word tracking beats full-image copying
 * (freezer strictly fewer backup bytes than active on the flagship) is
 * asserted fatally here, so every snapshot re-proves it.
 *
 * Finally, a pinned four-job campaign is run end to end through two
 * spawned nvpsim processes — the serial `sweep` path and the 4-worker
 * `serve` fleet service (DESIGN.md §15) — as `fleet_sweep@serial` /
 * `fleet_sweep@w4` rows. They are likewise excluded from the gated
 * aggregate (process spawn and socket costs are not sim throughput),
 * but the two runs' merged CSVs must be byte-identical, so every
 * snapshot run re-proves the fleet determinism contract. The same
 * campaign is then timed with the live telemetry plane off vs fully
 * on (`fleet_progress@off` / `fleet_progress@on`: per-job PROGRESS
 * cadence plus a status socket, DESIGN.md §16) — non-gated, overhead
 * printed against the <= 3 % target, CSVs again byte-compared.
 *
 * Timing fields are machine-dependent by nature; everything else in the
 * snapshot (instructions, frames, energy, psnr, report digests) is a
 * deterministic function of the pinned samples/seed, so digest drift
 * flags behavioral change independent of the throughput gate.
 *
 * Modes:
 *   snapshot [--out F]                      run the suite, write F
 *                                           (default BENCH_10.json)
 *   snapshot --check PRIOR CURRENT          gate CURRENT against PRIOR;
 *            [--max-regression-pct P]       exit 1 on > P % regression
 *                                           (default 10)
 *   snapshot --doctor IN OUT --scale S      scale IN's throughput
 *                                           fields by S into OUT (the
 *                                           gate's negative test)
 *   snapshot --selftest                     synthetic end-to-end check
 *                                           of the gate logic
 *
 * Env knobs:
 *   INC_SNAPSHOT_SAMPLES  trace length per entry (default 60000)
 *   INC_SNAPSHOT_ROUNDS   timing rounds, best-of (default 5)
 *   INC_BENCH_SEED        master seed (default 2017)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "kernels/kernel.h"
#include "nvp/core.h"
#include "obs/json.h"
#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/report/report.h"
#include "sim/result_io.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"
#include "util/flags.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/table.h"

namespace
{

using namespace inc;

constexpr char kSchema[] = "inc-bench-snapshot-v1";
constexpr int kPr = 10;
constexpr double kDefaultGatePct = 10.0;

/** The pinned suite: two power regimes for the flagship kernel plus
 *  two structurally different kernels. Changing this list invalidates
 *  per-entry comparisons against older snapshots (check only warns for
 *  unmatched names), so grow it deliberately. */
struct SuiteEntry
{
    const char *name;
    const char *kernel;
    int profile;
};

constexpr SuiteEntry kSuite[] = {
    {"sobel_p1", "sobel", 1},
    {"sobel_p2", "sobel", 2},
    {"median_p1", "median", 1},
    {"integral_p3", "integral", 3},
};

/** The entry re-run under every registered engine (`<name>@<engine>`
 *  rows) and every registered backup strategy (`<name>@<strategy>`
 *  rows). The flagship's mid-power profile: enough outages to exercise
 *  recovery (and backup) paths, enough power to retire real work. */
constexpr SuiteEntry kEngineMatrixEntry = {"sobel_p2", "sobel", 2};

struct Measurement
{
    std::string name;
    std::string kernel;
    int profile = 0;
    std::string engine; ///< execution engine the entry ran under
    std::string strategy; ///< set only on strategy-matrix rows
    bool in_aggregate = true; ///< counted in the gated throughput total
    double wall_seconds = 0.0;
    double instr_per_sec = 0.0;
    double energy_per_frame_nj = 0.0;
    double mean_psnr = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t frames_completed = 0;
    std::uint64_t ckpt_backup_bytes = 0;
    std::uint64_t ckpt_backup_events = 0;
    std::string report_digest;
    std::string serialized_result; ///< in-memory only, never in JSON
};

std::size_t
snapshotSamples()
{
    return static_cast<std::size_t>(
        bench::envPositive("INC_SNAPSHOT_SAMPLES", 60000));
}

int
snapshotRounds()
{
    return static_cast<int>(
        bench::envPositive("INC_SNAPSHOT_ROUNDS", 5, 1000));
}

/** Best-of-N timing of one suite entry. The simulation itself is
 *  deterministic, so rounds only tighten the wall-clock estimate; a
 *  cross-round instruction-count mismatch means nondeterminism crept
 *  into the sim and is fatal. */
Measurement
runEntry(const SuiteEntry &entry, std::size_t samples,
         std::uint64_t seed, int rounds,
         const nvp::ExecEngine *engine = nullptr,
         const sim::StrategyKind *strategy = nullptr)
{
    using clock = std::chrono::steady_clock;

    const trace::PowerTrace trace =
        trace::TraceGenerator(trace::paperProfile(entry.profile), seed)
            .generate(samples);
    const kernels::Kernel kernel = kernels::makeKernel(entry.kernel);
    sim::SimConfig config = bench::incidentalConfig(2, 8);
    config.seed = seed;
    if (engine)
        config.core.engine = *engine;
    if (strategy)
        config.strategy = *strategy;

    Measurement m;
    m.name = entry.name;
    m.kernel = entry.kernel;
    m.profile = entry.profile;
    m.engine = nvp::execEngineName(config.core.engine);
    if (engine) {
        // Engine-matrix row: named `<entry>@<engine>`, informative
        // only — kept out of the gated aggregate so the trajectory
        // stays comparable with pre-matrix snapshots.
        m.name += "@" + m.engine;
        m.in_aggregate = false;
    }
    if (strategy) {
        // Strategy-matrix row: same treatment as the engine rows.
        m.strategy = sim::strategyName(*strategy);
        m.name += "@" + m.strategy;
        m.in_aggregate = false;
    }
    m.wall_seconds = 0.0;
    for (int round = 0; round < rounds; ++round) {
        obs::Observer observer;
        obs::FlightRecorder flight;
        observer.flight = &flight;
        sim::SimConfig cfg = config;
        cfg.obs = &observer;
        sim::SystemSimulator simulator(kernel, &trace, cfg);

        const auto start = clock::now();
        const sim::SimResult result = simulator.run();
        const double wall =
            std::chrono::duration<double>(clock::now() - start).count();

        if (round == 0) {
            m.instructions = result.main_instructions;
            m.frames_completed = result.controller.frames_completed;
            m.energy_per_frame_nj =
                result.consumed_energy_nj /
                static_cast<double>(
                    std::max<std::uint64_t>(1, m.frames_completed));
            m.mean_psnr = result.mean_psnr;
            const obs::RunReport report =
                obs::buildRunReport(observer.registry, &flight);
            m.report_digest = obs::reportDigest(report.toJson());
            m.serialized_result = sim::serializeResult(result);
            const sim::StrategyStats &ckpt =
                simulator.strategy().stats();
            m.ckpt_backup_bytes = ckpt.backup_bytes;
            m.ckpt_backup_events = ckpt.backups;
            m.wall_seconds = wall;
        } else {
            if (result.main_instructions != m.instructions)
                util::fatal("nondeterministic run: %s executed %llu "
                            "then %llu instructions",
                            entry.name,
                            static_cast<unsigned long long>(
                                m.instructions),
                            static_cast<unsigned long long>(
                                result.main_instructions));
            m.wall_seconds = std::min(m.wall_seconds, wall);
        }
    }
    m.instr_per_sec = m.wall_seconds > 0.0
                          ? static_cast<double>(m.instructions) /
                                m.wall_seconds
                          : 0.0;
    return m;
}

obs::JsonValue
snapshotToJson(const std::vector<Measurement> &suite,
               std::size_t samples, std::uint64_t seed, int rounds)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("schema", obs::JsonValue::of(std::string(kSchema)));
    doc.set("pr",
            obs::JsonValue::of(static_cast<std::uint64_t>(kPr)));
    doc.set("samples",
            obs::JsonValue::of(static_cast<std::uint64_t>(samples)));
    doc.set("seed", obs::JsonValue::of(seed));
    doc.set("rounds",
            obs::JsonValue::of(static_cast<std::uint64_t>(rounds)));

    obs::JsonValue entries = obs::JsonValue::array();
    std::uint64_t total_instr = 0;
    double total_wall = 0.0;
    for (const Measurement &m : suite) {
        obs::JsonValue e = obs::JsonValue::object();
        e.set("name", obs::JsonValue::of(m.name));
        e.set("kernel", obs::JsonValue::of(m.kernel));
        e.set("profile",
              obs::JsonValue::of(static_cast<std::uint64_t>(
                  m.profile)));
        if (!m.engine.empty())
            e.set("engine", obs::JsonValue::of(m.engine));
        if (!m.strategy.empty()) {
            e.set("strategy", obs::JsonValue::of(m.strategy));
            e.set("ckpt_backup_bytes",
                  obs::JsonValue::of(m.ckpt_backup_bytes));
            e.set("ckpt_backup_events",
                  obs::JsonValue::of(m.ckpt_backup_events));
        }
        e.set("aggregate", obs::JsonValue::of(m.in_aggregate));
        e.set("wall_seconds", obs::JsonValue::of(m.wall_seconds));
        e.set("instr_per_sec", obs::JsonValue::of(m.instr_per_sec));
        e.set("energy_per_frame_nj",
              obs::JsonValue::of(m.energy_per_frame_nj));
        e.set("mean_psnr", obs::JsonValue::of(m.mean_psnr));
        e.set("instructions", obs::JsonValue::of(m.instructions));
        e.set("frames_completed",
              obs::JsonValue::of(m.frames_completed));
        e.set("report_digest", obs::JsonValue::of(m.report_digest));
        entries.push(std::move(e));
        if (m.in_aggregate) {
            total_instr += m.instructions;
            total_wall += m.wall_seconds;
        }
    }
    doc.set("suite", std::move(entries));
    doc.set("throughput_instr_per_sec",
            obs::JsonValue::of(
                total_wall > 0.0
                    ? static_cast<double>(total_instr) / total_wall
                    : 0.0));
    return doc;
}

std::string
readTextFile(const std::string &path)
{
    std::string text;
    if (!util::readFile(path, &text))
        util::fatal("cannot open '%s'", path.c_str());
    return text;
}

void
writeTextFile(const std::string &path, const std::string &content)
{
    if (!util::writeFile(path, content))
        util::fatal("could not write '%s'", path.c_str());
}

obs::JsonValue
loadSnapshot(const std::string &path)
{
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(readTextFile(path), &doc, &error))
        util::fatal("%s: %s", path.c_str(), error.c_str());
    if (!doc.isObject())
        util::fatal("%s: snapshot root is not an object", path.c_str());
    const obs::JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() || schema->string() != kSchema)
        util::fatal("%s: not a %s document", path.c_str(), kSchema);
    return doc;
}

double
memberNumber(const obs::JsonValue &obj, const char *key,
             const char *context)
{
    const obs::JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        util::fatal("%s: missing numeric field '%s'", context, key);
    return v->number();
}

std::string
memberString(const obs::JsonValue &obj, const char *key,
             const char *context)
{
    const obs::JsonValue *v = obj.find(key);
    if (!v || !v->isString())
        util::fatal("%s: missing string field '%s'", context, key);
    return v->string();
}

const std::vector<obs::JsonValue> &
suiteItems(const obs::JsonValue &doc, const char *context)
{
    const obs::JsonValue *suite = doc.find("suite");
    if (!suite || !suite->isArray())
        util::fatal("%s: missing 'suite' array", context);
    return suite->items();
}

/**
 * Gate @p current against @p prior. The pass/fail decision rides on the
 * aggregate instructions/sec only: individual entries run for tens of
 * milliseconds and wobble several percent run-to-run, while the suite
 * total averages that noise down to ~3 %, which a 10 % gate clears
 * comfortably. Per-entry deltas (matched by name) are still printed —
 * and flagged "slow" past the gate — so a localized regression hidden
 * by an aggregate win is visible in the log. Entries present on only
 * one side are reported but never fail the gate — the suite is allowed
 * to grow across PRs. Returns true when the gate passes.
 */
bool
checkSnapshots(const obs::JsonValue &prior,
               const obs::JsonValue &current, double max_pct)
{
    std::printf("snapshot check (gate: -%g %% aggregate instr/s)\n",
                max_pct);
    bool ok = true;
    auto judge = [&](const std::string &label, double before,
                     double after, bool gated) {
        const double pct =
            before > 0.0 ? 100.0 * (after - before) / before : 0.0;
        const bool slow = pct < -max_pct;
        std::printf("  %-14s %12.4g -> %12.4g instr/s  (%+.2f %%)  %s\n",
                    label.c_str(), before, after, pct,
                    slow ? (gated ? "FAIL" : "slow") : "ok");
        if (gated)
            ok = ok && !slow;
    };

    for (const obs::JsonValue &p : suiteItems(prior, "prior")) {
        const std::string name = memberString(p, "name", "prior entry");
        const obs::JsonValue *match = nullptr;
        for (const obs::JsonValue &c : suiteItems(current, "current")) {
            if (memberString(c, "name", "current entry") == name) {
                match = &c;
                break;
            }
        }
        if (!match) {
            std::printf("  %-14s dropped from suite (not gated)\n",
                        name.c_str());
            continue;
        }
        judge(name,
              memberNumber(p, "instr_per_sec", "prior entry"),
              memberNumber(*match, "instr_per_sec", "current entry"),
              false);
    }
    judge("aggregate",
          memberNumber(prior, "throughput_instr_per_sec", "prior"),
          memberNumber(current, "throughput_instr_per_sec", "current"),
          true);

    if (!ok)
        std::fprintf(stderr,
                     "FAIL: throughput regressed beyond %g %%\n",
                     max_pct);
    else
        std::printf("OK\n");
    return ok;
}

/** Scale every throughput field by @p scale (wall times by 1/scale):
 *  the negative test that proves the gate actually bites. */
obs::JsonValue
doctorSnapshot(const obs::JsonValue &doc, double scale)
{
    obs::JsonValue out = doc;
    out.set("throughput_instr_per_sec",
            obs::JsonValue::of(
                memberNumber(doc, "throughput_instr_per_sec",
                             "snapshot") *
                scale));
    obs::JsonValue entries = obs::JsonValue::array();
    for (const obs::JsonValue &e : suiteItems(doc, "snapshot")) {
        obs::JsonValue copy = e;
        copy.set("instr_per_sec",
                 obs::JsonValue::of(
                     memberNumber(e, "instr_per_sec", "entry") *
                     scale));
        if (scale > 0.0) {
            copy.set("wall_seconds",
                     obs::JsonValue::of(
                         memberNumber(e, "wall_seconds", "entry") /
                         scale));
        }
        entries.push(std::move(copy));
    }
    out.set("suite", std::move(entries));
    return out;
}

/** A fabricated snapshot document for the self-test. */
obs::JsonValue
syntheticSnapshot()
{
    std::vector<Measurement> suite;
    for (const SuiteEntry &entry : kSuite) {
        Measurement m;
        m.name = entry.name;
        m.kernel = entry.kernel;
        m.profile = entry.profile;
        m.wall_seconds = 0.5;
        m.instructions = 1000000;
        m.instr_per_sec = 2.0e6;
        m.frames_completed = 10;
        m.energy_per_frame_nj = 120.0;
        m.mean_psnr = 30.0;
        m.report_digest = "fnv1a:0000000000000000";
        suite.push_back(std::move(m));
    }
    return snapshotToJson(suite, 20000, 2017, 3);
}

int
selftest()
{
    const obs::JsonValue base = syntheticSnapshot();

    std::string error;
    obs::JsonValue reparsed;
    if (!obs::parseJson(base.dump(), &reparsed, &error))
        util::fatal("selftest: snapshot JSON does not re-parse: %s",
                    error.c_str());

    std::printf("-- selftest: identical snapshots must pass --\n");
    if (!checkSnapshots(base, base, kDefaultGatePct))
        util::fatal("selftest: identical snapshots failed the gate");

    std::printf("-- selftest: -5 %% must pass a 10 %% gate --\n");
    if (!checkSnapshots(base, doctorSnapshot(base, 0.95),
                        kDefaultGatePct))
        util::fatal("selftest: -5 %% tripped the 10 %% gate");

    std::printf("-- selftest: -15 %% must fail a 10 %% gate --\n");
    if (checkSnapshots(base, doctorSnapshot(base, 0.85),
                       kDefaultGatePct))
        util::fatal("selftest: the gate accepted a doctored -15 %% "
                    "snapshot");

    std::printf("selftest: gate logic OK\n");
    return 0;
}

#ifdef INC_NVPSIM_PATH
/** Wall-time one spawned nvpsim campaign command, best of @p rounds.
 *  Fleet rows measure the whole process tree — spawn, expansion,
 *  simulation, wire-protocol merge — which is the figure a campaign
 *  user actually sees. */
Measurement
runFleetRow(const char *name, const std::string &command, int rounds)
{
    using clock = std::chrono::steady_clock;
    Measurement m;
    m.name = name;
    m.kernel = "campaign";
    m.profile = 0;
    m.in_aggregate = false;
    for (int round = 0; round < rounds; ++round) {
        const auto start = clock::now();
        const int rc = std::system(command.c_str());
        const double wall =
            std::chrono::duration<double>(clock::now() - start).count();
        if (rc != 0)
            util::fatal("fleet bench command failed (status %d): %s",
                        rc, command.c_str());
        m.wall_seconds =
            round == 0 ? wall : std::min(m.wall_seconds, wall);
    }
    return m;
}

/** The fleet-throughput rows: the same pinned four-job campaign run
 *  serially (`nvpsim sweep`) and through the 4-worker fleet service
 *  (`nvpsim serve`). Informative only — excluded from the gated
 *  aggregate — but the merged CSVs must be byte-identical, making
 *  every snapshot run a fleet-determinism check too. */
void
appendFleetRows(std::vector<Measurement> *suite, std::uint64_t seed,
                int rounds)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("inc-snapshot-fleet-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string campaign = (dir / "campaign.json").string();
    // 6 s of trace per job keeps each job heavy enough (~100 ms of
    // simulation) that worker spawn and socket costs do not drown the
    // parallel win.
    writeTextFile(campaign,
                  "{\"kernels\": \"sobel,median\", \"profiles\": "
                  "\"2,3\", \"seconds\": 6.0, \"seed\": " +
                      std::to_string(seed) + "}\n");
    const std::string serial_csv = (dir / "serial.csv").string();
    const std::string fleet_csv = (dir / "fleet.csv").string();
    suite->push_back(runFleetRow(
        "fleet_sweep@serial",
        std::string(INC_NVPSIM_PATH) +
            " sweep --kernels sobel,median --profiles 2,3"
            " --seconds 6 --seed " +
            std::to_string(seed) + " --jobs 1 --out " + serial_csv +
            " > /dev/null 2>&1",
        rounds));
    // Each round wipes the fleet dir first: leftover shard journals
    // would warm-restart the replacement run and time a no-op merge.
    suite->push_back(runFleetRow(
        "fleet_sweep@w4",
        "rm -rf " + (dir / "fd").string() + " && " +
            std::string(INC_NVPSIM_PATH) + " serve " + campaign +
            " --workers 4 --fleet-dir " + (dir / "fd").string() +
            " --out " + fleet_csv + " > /dev/null 2>&1",
        rounds));
    if (readTextFile(serial_csv) != readTextFile(fleet_csv))
        util::fatal("fleet service diverged from the serial sweep: "
                    "'%s' and '%s' differ",
                    serial_csv.c_str(), fleet_csv.c_str());

    // PROGRESS-streaming overhead (DESIGN.md §16): the same 4-worker
    // campaign with the live plane disabled vs fully on — per-job
    // PROGRESS cadence plus a status socket (nobody connected, which
    // is the steady state the coordinator pays for every loop tick).
    // Informative only; the §16 target is <= 3 %, and the telemetry
    // plane must not move a CSV byte either way.
    const std::string off_csv = (dir / "off.csv").string();
    const std::string on_csv = (dir / "on.csv").string();
    suite->push_back(runFleetRow(
        "fleet_progress@off",
        "rm -rf " + (dir / "fd").string() + " && " +
            std::string(INC_NVPSIM_PATH) + " serve " + campaign +
            " --workers 4 --fleet-dir " + (dir / "fd").string() +
            " --progress-every 0 --out " + off_csv +
            " > /dev/null 2>&1",
        rounds));
    suite->push_back(runFleetRow(
        "fleet_progress@on",
        "rm -rf " + (dir / "fd").string() + " && " +
            std::string(INC_NVPSIM_PATH) + " serve " + campaign +
            " --workers 4 --fleet-dir " + (dir / "fd").string() +
            " --progress-every 1 --status-socket --out " + on_csv +
            " > /dev/null 2>&1",
        rounds));
    const double off_s = (*suite)[suite->size() - 2].wall_seconds;
    const double on_s = suite->back().wall_seconds;
    if (off_s > 0.0)
        std::printf("fleet: PROGRESS streaming overhead %+.1f %% "
                    "(%.3f s off, %.3f s on; target <= 3 %%)\n",
                    100.0 * (on_s - off_s) / off_s, off_s, on_s);
    if (readTextFile(off_csv) != readTextFile(serial_csv) ||
        readTextFile(on_csv) != readTextFile(serial_csv))
        util::fatal("live telemetry plane perturbed the campaign CSV "
                    "(compare %s / %s against %s)",
                    off_csv.c_str(), on_csv.c_str(), serial_csv.c_str());
    fs::remove_all(dir);
}
#endif

int
runSuite(const std::string &out_path)
{
    const std::size_t samples = snapshotSamples();
    const std::uint64_t seed = bench::benchSeed();
    const int rounds = snapshotRounds();

    std::vector<Measurement> suite;
    for (const SuiteEntry &entry : kSuite)
        suite.push_back(runEntry(entry, samples, seed, rounds));

    // Engine matrix: the flagship entry under every registered engine.
    // The digests must agree with the base entry — the engines are
    // bit-identical by contract (DESIGN.md §11), so a snapshot run
    // doubles as an engine-equivalence check.
    std::string base_digest;
    for (const Measurement &m : suite)
        if (m.name == kEngineMatrixEntry.name)
            base_digest = m.report_digest;
    std::string base_result;
    for (const Measurement &m : suite)
        if (m.name == kEngineMatrixEntry.name)
            base_result = m.serialized_result;
    for (const nvp::ExecEngine engine : nvp::allExecEngines()) {
        suite.push_back(runEntry(kEngineMatrixEntry, samples, seed,
                                 rounds, &engine));
        if (suite.back().report_digest != base_digest)
            util::fatal("engine '%s' diverged from the default engine: "
                        "digest %s vs %s on %s",
                        nvp::execEngineName(engine),
                        suite.back().report_digest.c_str(),
                        base_digest.c_str(), kEngineMatrixEntry.name);
    }

    // Strategy matrix: the flagship entry under every registered
    // backup strategy. Strategies are an observation overlay
    // (DESIGN.md §14): a crash-free run is bit-identical across them,
    // so the serialized SimResult must match the base entry byte for
    // byte. The report digest is NOT compared — each strategy exports
    // its own ckpt.* counters, so digests legitimately differ.
    std::uint64_t active_bytes = 0, freezer_bytes = 0;
    for (const sim::StrategyKind strategy : sim::allStrategies()) {
        suite.push_back(runEntry(kEngineMatrixEntry, samples, seed,
                                 rounds, nullptr, &strategy));
        const Measurement &row = suite.back();
        if (row.serialized_result != base_result)
            util::fatal("strategy '%s' perturbed the simulation: "
                        "SimResult diverged from the base run on %s",
                        sim::strategyName(strategy),
                        kEngineMatrixEntry.name);
        if (strategy == sim::StrategyKind::active)
            active_bytes = row.ckpt_backup_bytes;
        else if (strategy == sim::StrategyKind::freezer)
            freezer_bytes = row.ckpt_backup_bytes;
    }
    // The related-work claim the strategy zoo exists to land: dirty-word
    // tracking must beat full-image copying on backup traffic.
    if (!(freezer_bytes < active_bytes))
        util::fatal("freezer backed up %llu bytes vs active's %llu on "
                    "%s — dirty-word tracking must strictly reduce "
                    "backup traffic",
                    static_cast<unsigned long long>(freezer_bytes),
                    static_cast<unsigned long long>(active_bytes),
                    kEngineMatrixEntry.name);

#ifdef INC_NVPSIM_PATH
    appendFleetRows(&suite, seed, rounds);
#endif

    util::Table table("perf snapshot (pinned suite, best of " +
                      std::to_string(rounds) + ")");
    table.setHeader({"entry", "wall s", "instr/s", "nJ/frame", "PSNR",
                     "digest"});
    for (const Measurement &m : suite) {
        table.addRow({m.name, util::Table::num(m.wall_seconds, 4),
                      util::Table::num(m.instr_per_sec, 0),
                      util::Table::num(m.energy_per_frame_nj, 1),
                      util::Table::num(m.mean_psnr, 2),
                      m.report_digest});
    }
    table.print();

    const obs::JsonValue doc =
        snapshotToJson(suite, samples, seed, rounds);
    writeTextFile(out_path, doc.dump() + "\n");
    std::printf("snapshot written to %s\n", out_path.c_str());
    return 0;
}

double
parseDoubleArg(const char *text, const char *what)
{
    double value = 0.0;
    if (!util::parseNumber(text, &value))
        util::fatal("%s: '%s' is not a number", what, text);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_10.json";
    std::string check_prior, check_current;
    std::string doctor_in, doctor_out;
    double max_pct = kDefaultGatePct;
    double scale = 0.0;
    bool do_check = false, do_doctor = false;

    auto next = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s requires an argument", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--selftest") == 0) {
            return selftest();
        } else if (std::strcmp(arg, "--out") == 0) {
            out_path = next(i, arg);
        } else if (std::strcmp(arg, "--check") == 0) {
            do_check = true;
            check_prior = next(i, arg);
            check_current = next(i, arg);
        } else if (std::strcmp(arg, "--max-regression-pct") == 0) {
            max_pct = parseDoubleArg(next(i, arg), arg);
        } else if (std::strcmp(arg, "--doctor") == 0) {
            do_doctor = true;
            doctor_in = next(i, arg);
            doctor_out = next(i, arg);
        } else if (std::strcmp(arg, "--scale") == 0) {
            scale = parseDoubleArg(next(i, arg), arg);
        } else {
            util::fatal("unknown argument '%s' (modes: [--out F] | "
                        "--check PRIOR CURRENT [--max-regression-pct "
                        "P] | --doctor IN OUT --scale S | --selftest)",
                        arg);
        }
    }

    if (do_check && do_doctor)
        util::fatal("--check and --doctor are mutually exclusive");
    if (do_check) {
        return checkSnapshots(loadSnapshot(check_prior),
                              loadSnapshot(check_current), max_pct)
                   ? 0
                   : 1;
    }
    if (do_doctor) {
        if (scale <= 0.0)
            util::fatal("--doctor requires --scale S with S > 0");
        const obs::JsonValue doc =
            doctorSnapshot(loadSnapshot(doctor_in), scale);
        writeTextFile(doctor_out, doc.dump() + "\n");
        std::printf("doctored snapshot (x%g) written to %s\n", scale,
                    doctor_out.c_str());
        return 0;
    }
    return runSuite(out_path);
}
