/**
 * @file
 * Conformance tier for the backup-strategy zoo (src/sim/strategy,
 * DESIGN.md §14). The shared contract, asserted over a strategy ×
 * kernel × profile matrix on both persistence backends:
 *
 *  - crash-free overlay identity: every registered strategy's
 *    serialized SimResult is byte-identical to the `active` baseline
 *    (a strategy observes the run; it never perturbs it), and its
 *    metrics registry satisfies the full cross-metric identities of
 *    obs/schema.h including the guarded ckpt.* block;
 *
 *  - the freezer's dirty-word backups never write more bytes than the
 *    full-image baseline over the same trajectory;
 *
 *  - a run with no persistence backend materializes no image, yet its
 *    StrategyStats and metrics equal those of the same run bound to a
 *    HeapBackend (the inert ImageStore keeps the commit metadata the
 *    accounting reads);
 *
 *  - arena-backed runs are byte-identical to heap-backed runs and the
 *    committed "ckpt" image survives closing and reopening the arena
 *    with its sequence number and per-slot CRC intact;
 *
 *  - in-flight (uncommitted) image writes never corrupt the committed
 *    slot — the torn-copy discipline at the ImageStore layer;
 *
 *  - a real fork()ed child running an arena-backed simulation is
 *    SIGKILLed after its first committed backup; the parent recovers
 *    the arena and must find a CRC-consistent committed frame (the
 *    any-crash-point criterion), and a journaled strategy sweep killed
 *    mid-campaign resumes to byte-identical results.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "arena/arena.h"
#include "arena/backend.h"
#include "kernels/kernel.h"
#include "obs/observer.h"
#include "obs/schema.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "sim/result_io.h"
#include "sim/strategy/image_store.h"
#include "sim/strategy/strategy.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;
using arena::Arena;

namespace fs = std::filesystem;

namespace
{

constexpr std::size_t kSamples = 2500; ///< 0.25 s of harvester time

std::string
uniqueDir(const std::string &tag)
{
    const std::string d =
        (fs::temp_directory_path() /
         ("inc-strategy-conf-" + std::to_string(::getpid()) + "-" + tag))
            .string();
    fs::remove_all(d);
    return d;
}

/** The full incidental machinery at dynamic bits — the trajectory with
 *  the most backup/restore traffic per sample. */
sim::SimConfig
trialConfig(sim::StrategyKind kind)
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = 2;
    cfg.bits.max_bits = 8;
    cfg.controller.backup_policy = nvm::RetentionPolicy::full;
    cfg.frame_period_tenth_ms = 50.0;
    cfg.seed = 11;
    cfg.strategy = kind;
    return cfg;
}

/** One run's observable surface for the conformance checks. */
struct RunOut
{
    std::string result;
    sim::StrategyStats stats;
    std::string metrics_json;
    std::vector<std::string> metric_problems;
    bool materialized = false;
    bool image_ok = false;
    std::string image_why;
    bool has_committed = false;
    std::uint64_t committed_seq = 0;
    std::size_t state_bytes = 0;
};

RunOut
runStrategy(const std::string &kernel, const trace::PowerTrace &power,
            sim::StrategyKind kind,
            arena::PersistenceBackend *persistence)
{
    sim::SimConfig cfg = trialConfig(kind);
    cfg.persistence = persistence;
    obs::Observer observer;
    cfg.obs = &observer;
    sim::SystemSimulator sim(kernels::makeKernel(kernel), &power, cfg);
    RunOut out;
    out.result = sim::serializeResult(sim.run());
    out.stats = sim.strategy().stats();
    out.metrics_json = observer.registry.toJson();
    out.metric_problems =
        obs::verifySimMetricIdentities(observer.registry);
    out.materialized = sim.strategy().image().materialized();
    out.image_ok = sim.strategy().verifyImage(&out.image_why);
    out.has_committed = sim.strategy().image().hasCommitted();
    out.committed_seq = sim.strategy().image().committedSeq();
    out.state_bytes = sim.strategy().image().stateBytes();
    return out;
}

struct MatrixParam
{
    sim::StrategyKind kind;
    std::string kernel;
    int profile;
};

std::vector<MatrixParam>
matrix()
{
    std::vector<MatrixParam> rows;
    for (const sim::StrategyKind kind : sim::allStrategies())
        for (const char *kernel : {"sobel", "median"})
            for (int profile = 1; profile <= 2; ++profile)
                rows.push_back({kind, kernel, profile});
    return rows;
}

class StrategyConformance
    : public ::testing::TestWithParam<MatrixParam>
{
};

} // namespace

TEST_P(StrategyConformance, CrashFreeRunMatchesActiveBaseline)
{
    const MatrixParam p = GetParam();
    trace::TraceGenerator gen(trace::paperProfile(p.profile), 23);
    const trace::PowerTrace power = gen.generate(kSamples);

    // Bound to a heap backend, so the image materializes and
    // verifyImage checks a real CRC.
    arena::HeapBackend active_heap;
    arena::HeapBackend heap;
    const RunOut active = runStrategy(
        p.kernel, power, sim::StrategyKind::active, &active_heap);
    const RunOut run = runStrategy(p.kernel, power, p.kind, &heap);
    ASSERT_TRUE(run.materialized);

    // Overlay identity: the simulated trajectory never depends on the
    // strategy observing it.
    EXPECT_EQ(run.result, active.result)
        << "strategy " << sim::strategyName(p.kind)
        << " perturbed the simulation";

    // The ckpt.* accounting is internally consistent (schema block).
    EXPECT_TRUE(run.metric_problems.empty())
        << "first: " << run.metric_problems.front();

    // The committed image CRC-verifies, and it exists iff the run ever
    // committed.
    EXPECT_TRUE(run.image_ok) << run.image_why;
    EXPECT_EQ(run.has_committed,
              run.stats.backups + run.stats.snapshots > 0);

    // Strategy-shape expectations over the shared trajectory.
    EXPECT_EQ(run.stats.backups, active.stats.backups);
    if (p.kind == sim::StrategyKind::freezer) {
        EXPECT_LE(run.stats.backup_bytes, active.stats.backup_bytes)
            << "dirty-word backup wrote more than the full image";
        EXPECT_LE(run.stats.words_written, run.stats.words_tracked);
    }
    if (p.kind == sim::StrategyKind::ondemand) {
        EXPECT_GE(run.stats.backup_bytes, active.stats.backup_bytes)
            << "extra watermark snapshots cannot shrink backup bytes";
    }
    if (p.kind == sim::StrategyKind::active) {
        EXPECT_EQ(run.stats.backup_bytes,
                  run.stats.backups * run.state_bytes);
    }
}

TEST_P(StrategyConformance, UnboundRunAccountsLikeABoundOne)
{
    const MatrixParam p = GetParam();
    trace::TraceGenerator gen(trace::paperProfile(p.profile), 23);
    const trace::PowerTrace power = gen.generate(kSamples);

    arena::HeapBackend heap;
    const RunOut bound = runStrategy(p.kernel, power, p.kind, &heap);
    const RunOut unbound = runStrategy(p.kernel, power, p.kind, nullptr);

    EXPECT_TRUE(bound.materialized);
    EXPECT_FALSE(unbound.materialized)
        << "an unhosted strategy must not copy or checksum an image";
    ASSERT_GT(bound.stats.backups, 0u)
        << "trace produced no backups; matrix misconfigured";
    EXPECT_EQ(unbound.result, bound.result);
    EXPECT_TRUE(unbound.stats == bound.stats)
        << "backup_bytes " << unbound.stats.backup_bytes << " vs "
        << bound.stats.backup_bytes << ", restore_bytes "
        << unbound.stats.restore_bytes << " vs "
        << bound.stats.restore_bytes;
    EXPECT_EQ(unbound.metrics_json, bound.metrics_json);
    EXPECT_EQ(unbound.has_committed, bound.has_committed);
    EXPECT_EQ(unbound.committed_seq, bound.committed_seq);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StrategyConformance, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return std::string(sim::strategyName(info.param.kind)) + "_" +
               info.param.kernel + "_p" +
               std::to_string(info.param.profile);
    });

TEST(StrategyArena, RunMatchesHeapAndImageSurvivesReopen)
{
    trace::TraceGenerator gen(trace::paperProfile(2), 31);
    const trace::PowerTrace power = gen.generate(kSamples);

    for (const sim::StrategyKind kind : sim::allStrategies()) {
        SCOPED_TRACE(sim::strategyName(kind));
        const std::string dir =
            uniqueDir(std::string("reopen-") + sim::strategyName(kind));

        const RunOut heap =
            runStrategy("sobel", power, kind, nullptr);
        RunOut arena_run;
        {
            auto store = Arena::open(dir);
            arena::ArenaBackend backend(store.get());
            arena_run = runStrategy("sobel", power, kind, &backend);
        } // no shutdown path — recovery must find the image

        EXPECT_EQ(arena_run.result, heap.result)
            << "arena backend perturbed the simulation";
        ASSERT_TRUE(arena_run.has_committed)
            << "trace produced no backups; matrix misconfigured";

        auto store = Arena::open(dir);
        arena::ArenaBackend backend(store.get());
        sim::ImageStore image(&backend, "ckpt", arena_run.state_bytes,
                              sim::ImageStore::kMetaBytesCrc);
        EXPECT_TRUE(image.warmStart());
        EXPECT_EQ(image.committedSeq(), arena_run.committed_seq);
        std::string why;
        EXPECT_TRUE(image.verifyCommitted(&why)) << why;
        fs::remove_all(dir);
    }
}

TEST(StrategyArena, TornInFlightWritesNeverCorruptCommittedImage)
{
    const std::string dir = uniqueDir("torn");
    constexpr std::size_t kState = 512;
    std::vector<std::uint8_t> committed(kState);
    for (std::size_t i = 0; i < kState; ++i)
        committed[i] = static_cast<std::uint8_t>(i * 13 + 5);

    {
        auto store = Arena::open(dir);
        arena::ArenaBackend backend(store.get());
        sim::ImageStore image(&backend, "ckpt", kState,
                              sim::ImageStore::kMetaBytesCrc);
        image.writeSpan(0, committed.data(), kState);
        image.commit(1);
        // In-flight overwrite of the now-inactive slot, including the
        // final word, then the process "dies" before commit().
        for (std::size_t i = 0; i < kState; ++i)
            image.writeByte(i, 0xee);
    }

    auto store = Arena::open(dir);
    arena::ArenaBackend backend(store.get());
    sim::ImageStore image(&backend, "ckpt", kState,
                          sim::ImageStore::kMetaBytesCrc);
    ASSERT_TRUE(image.warmStart());
    EXPECT_EQ(image.committedSeq(), 1u);
    std::string why;
    EXPECT_TRUE(image.verifyCommitted(&why)) << why;
    EXPECT_EQ(std::memcmp(image.committedSlot(), committed.data(),
                          kState),
              0)
        << "torn in-flight writes leaked into the committed slot";
    fs::remove_all(dir);
}

TEST(StrategyCrash, SigkillAfterBackupLeavesConsistentImage)
{
    trace::TraceGenerator gen(trace::paperProfile(2), 47);
    const trace::PowerTrace power = gen.generate(6000);

    // Dry heap run: the matrix only makes sense when the trace commits
    // backups and completes frames afterwards.
    const RunOut dry = runStrategy("sobel", power,
                                   sim::StrategyKind::freezer, nullptr);
    ASSERT_GT(dry.stats.backups, 0u);

    for (const sim::StrategyKind kind : sim::allStrategies()) {
        SCOPED_TRACE(sim::strategyName(kind));
        const std::string dir =
            uniqueDir(std::string("kill-") + sim::strategyName(kind));

        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: run arena-backed and die — a real SIGKILL, no
            // cleanup — at the first frame completion that follows a
            // committed backup, so a committed image is guaranteed to
            // be on disk at the crash instant.
            auto store = Arena::open(dir);
            arena::ArenaBackend backend(store.get());
            sim::SimConfig cfg = trialConfig(kind);
            cfg.persistence = &backend;
            sim::SystemSimulator sim(kernels::makeKernel("sobel"),
                                     &power, cfg);
            sim.controller().setCompletionCallback(
                [&sim](const core::FrameCompletion &) {
                    if (sim.strategy().stats().backups > 0)
                        std::raise(SIGKILL);
                });
            sim.run();
            ::_exit(2); // not reached when the trace backs up
        }

        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status))
            << "child should die by signal, got status " << status;
        EXPECT_EQ(WTERMSIG(status), SIGKILL);

        // Parent: recover. Whatever instant the kill hit, the committed
        // slot must be a complete, CRC-consistent frame.
        auto store = Arena::open(dir);
        EXPECT_TRUE(store->stats().recovered);
        arena::ArenaBackend backend(store.get());
        sim::ImageStore image(&backend, "ckpt", dry.state_bytes,
                              sim::ImageStore::kMetaBytesCrc);
        ASSERT_TRUE(image.warmStart());
        EXPECT_GE(image.committedSeq(), 1u);
        std::string why;
        EXPECT_TRUE(image.verifyCommitted(&why)) << why;
        fs::remove_all(dir);
    }
}

namespace
{

/** 2-job sweep whose variants select different strategies. */
runner::SweepSpec
strategySweep()
{
    runner::SweepSpec sw;
    sw.kernels = {"sobel"};
    trace::TraceGenerator gen(trace::paperProfile(2), 53);
    sw.traces = {gen.generate(2500)};
    sw.variants = {
        runner::ConfigVariant{"freezer",
                              [](const std::string &) {
                                  sim::SimConfig cfg = trialConfig(
                                      sim::StrategyKind::freezer);
                                  return cfg;
                              }},
        runner::ConfigVariant{"ondemand",
                              [](const std::string &) {
                                  sim::SimConfig cfg = trialConfig(
                                      sim::StrategyKind::ondemand);
                                  return cfg;
                              }},
    };
    sw.master_seed = 53;
    sw.jobs = 1;
    sw.collect_metrics = true;
    return sw;
}

} // namespace

TEST(StrategyCrash, ForkKillResumeOfStrategySweepIsByteIdentical)
{
    const std::string dir = uniqueDir("sweepkill");
    const runner::SweepSpec sw = strategySweep();

    const runner::SweepReport golden = runner::SweepRunner(sw).run();
    ASSERT_TRUE(golden.allOk());
    ASSERT_EQ(golden.results.size(), 2u);
    const std::string golden_merged = golden.mergedMetrics().toJson();

    const std::vector<runner::JobSpec> jobs = runner::expandSweep(sw);
    const std::string fp =
        runner::SweepJournal::fingerprint(sw, jobs, "strategy-test");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto a = Arena::open(dir);
        runner::SweepJournal journal(a.get());
        journal.bind(fp, jobs.size());
        runner::SweepRunner sweep(sw);
        sweep.setJournal(&journal);
        sweep.setRecordHook([](std::size_t) { std::raise(SIGKILL); });
        sweep.run();
        ::_exit(2); // not reached: the hook killed us
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    auto a = Arena::open(dir);
    EXPECT_TRUE(a->stats().recovered);
    runner::SweepJournal journal(a.get());
    ASSERT_TRUE(journal.bound());
    EXPECT_EQ(journal.completedCount(), 1u);

    runner::SweepRunner resumed_runner(sw);
    resumed_runner.setJournal(&journal);
    const runner::SweepReport resumed = resumed_runner.run();
    ASSERT_TRUE(resumed.allOk());
    ASSERT_EQ(resumed.results.size(), golden.results.size());
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        EXPECT_EQ(sim::serializeResult(resumed.results[i].result),
                  sim::serializeResult(golden.results[i].result))
            << "job " << i;
    }
    EXPECT_EQ(resumed.mergedMetrics().toJson(), golden_merged);
    fs::remove_all(dir);
}

#ifdef INC_NVPSIM_PATH
namespace
{

/** Run a shell command; returns its exit code and combined output. */
int
runCommand(const std::string &cmd, std::string *output)
{
    FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return -1;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe))
        *output += buf;
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(StrategyCli, RejectsUnknownStrategyWithTheValidNames)
{
    // Same hard-error shape as a bound arena without --resume: fatal,
    // nonzero exit, and the message names every valid choice.
    std::string out;
    const int code = runCommand(
        std::string(INC_NVPSIM_PATH) +
            " run --kernel sobel --profile 2 --seconds 0.1"
            " --strategy lazy",
        &out);
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find("unknown --strategy 'lazy'"), std::string::npos)
        << out;
    for (const sim::StrategyKind kind : sim::allStrategies())
        EXPECT_NE(out.find(sim::strategyName(kind)), std::string::npos)
            << out;
}

TEST(StrategyCli, AcceptsEveryRegisteredName)
{
    for (const sim::StrategyKind kind : sim::allStrategies()) {
        std::string out;
        const int code = runCommand(
            std::string(INC_NVPSIM_PATH) +
                " run --kernel sobel --profile 2 --seconds 0.2"
                " --strategy " +
                sim::strategyName(kind),
            &out);
        EXPECT_EQ(code, 0) << out;
    }
}
#endif // INC_NVPSIM_PATH

TEST(StrategyRegistry, NamesRoundTripAndActiveIsFirst)
{
    EXPECT_EQ(sim::allStrategies().size(),
              static_cast<std::size_t>(sim::kNumStrategies));
    EXPECT_EQ(sim::allStrategies().front(), sim::StrategyKind::active);
    for (const sim::StrategyKind kind : sim::allStrategies()) {
        const char *name = sim::strategyName(kind);
        const auto parsed = sim::strategyFromName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind);
        EXPECT_NE(sim::strategyNames().find(name), std::string::npos);
    }
    EXPECT_FALSE(sim::strategyFromName("lazy").has_value());
    EXPECT_FALSE(sim::strategyFromName("").has_value());
}
