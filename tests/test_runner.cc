/**
 * Tests for the src/runner experiment-orchestration subsystem: thread
 * pool lifecycle, sweep expansion/seeding, parallel-vs-serial
 * determinism, deterministic aggregation order, failure capture
 * with bounded retry, runJobs()'s one-call-at-a-time delivery (also
 * into a folder journaling results from parallel workers), and the
 * frame and frame-period calibration memos shared by concurrent jobs.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "fleet/folder.h"
#include "runner/journal.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "sim/functional.h"
#include "sim/result_io.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"
#include "util/fs.h"
#include "util/image.h"

using namespace inc;

namespace
{

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ExecutesAllSubmittedTasks)
{
    std::atomic<int> counter{0};
    runner::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    runner::ThreadPool pool(2);
    pool.wait(); // must not hang
    SUCCEED();
}

TEST(ThreadPool, ShutdownDrainsQueueAndJoins)
{
    std::atomic<int> counter{0};
    {
        runner::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                ++counter;
            });
        pool.shutdown(); // graceful: completes accepted work
        EXPECT_EQ(counter.load(), 50);
        pool.submit([&counter] { ++counter; }); // no-op after shutdown
        pool.shutdown();                        // idempotent
    } // destructor must join cleanly after explicit shutdown
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DestructorJoinsWithQueuedWork)
{
    std::atomic<int> counter{0};
    {
        runner::ThreadPool pool(3);
        for (int i = 0; i < 30; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must drain and join by itself.
    }
    EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(runner::ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, ZeroWorkerSpecFallsBackToDefault)
{
    // A literal zero-thread pool would deadlock every wait(); the
    // constructor must reject the spec and fall back to
    // defaultThreads() instead of honoring it.
    std::atomic<int> counter{0};
    runner::ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), runner::ThreadPool::defaultThreads());
    EXPECT_GE(pool.threadCount(), 1u);
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 10);
}

/**
 * Enqueue-during-drain stress: producer threads hammer submit() while
 * the main thread repeatedly drains with wait(). Under the
 * INCIDENTAL_TSAN CI job this is the lock-discipline proof for the
 * pool's queue, idle accounting and drain condition; in the normal
 * tier it still pins the liveness contract (no lost tasks, no hang).
 */
TEST(ThreadPool, EnqueueDuringDrainStress)
{
    constexpr int kProducers = 4;
    constexpr int kTasksPerProducer = 500;

    std::atomic<int> executed{0};
    std::atomic<bool> go{false};
    runner::ThreadPool pool(4);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &executed, &go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kTasksPerProducer; ++i)
                pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }

    go.store(true, std::memory_order_release);
    // Drain repeatedly while the producers are still enqueueing: every
    // wait() races new submissions against the empty-queue condition.
    for (int i = 0; i < 20; ++i)
        pool.wait();
    for (std::thread &t : producers)
        t.join();
    pool.wait();
    EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

/**
 * Shutdown racing live producers: tasks submitted concurrently with
 * shutdown() are either accepted (and must then run before shutdown
 * returns) or dropped — never torn, never executed after the join.
 */
TEST(ThreadPool, ShutdownRacesProducersSafely)
{
    constexpr int kProducers = 3;
    constexpr int kTasksPerProducer = 400;

    std::atomic<int> executed{0};
    std::atomic<bool> go{false};
    runner::ThreadPool pool(2);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &executed, &go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kTasksPerProducer; ++i)
                pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }

    go.store(true, std::memory_order_release);
    pool.shutdown();
    const int at_join = executed.load();
    for (std::thread &t : producers)
        t.join();
    // No task sneaks past the join barrier, and nothing accepted was
    // lost: the count is frozen at shutdown and bounded by the total.
    EXPECT_EQ(executed.load(), at_join);
    EXPECT_LE(executed.load(), kProducers * kTasksPerProducer);
    pool.shutdown(); // idempotent after the race
}

// ---------------------------------------------------------------------
// Sweep expansion

runner::SweepSpec
tinySpec(int jobs)
{
    runner::SweepSpec spec;
    spec.kernels = {"sobel", "median"};
    spec.traces = trace::standardProfiles(1000, 7);
    spec.traces.resize(2);
    spec.variants = {{"baseline", [](const std::string &) {
                          sim::SimConfig cfg;
                          cfg.seed = 2017;
                          return cfg;
                      }}};
    spec.master_seed = 42;
    spec.jobs = jobs;
    return spec;
}

TEST(SweepExpansion, KernelMajorOrderAndStableSeeds)
{
    const auto jobs = runner::expandSweep(tinySpec(1));
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].kernel, "sobel");
    EXPECT_EQ(jobs[1].kernel, "sobel");
    EXPECT_EQ(jobs[2].kernel, "median");
    EXPECT_EQ(jobs[0].trace_index, 0u);
    EXPECT_EQ(jobs[1].trace_index, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);

    // Expansion is deterministic: same spec, same seed tree.
    const auto again = runner::expandSweep(tinySpec(8));
    ASSERT_EQ(again.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(again[i].rng_seed, jobs[i].rng_seed);

    // Distinct jobs get distinct forked seeds.
    EXPECT_NE(jobs[0].rng_seed, jobs[1].rng_seed);
    EXPECT_NE(jobs[1].rng_seed, jobs[2].rng_seed);
}

// ---------------------------------------------------------------------
// Parallel determinism

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.forward_progress, b.forward_progress);
    EXPECT_EQ(a.main_instructions, b.main_instructions);
    EXPECT_EQ(a.cycles_executed, b.cycles_executed);
    EXPECT_EQ(a.backups, b.backups);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.frames_captured, b.frames_captured);
    // Bit-identical, not approximately equal: the whole point of the
    // seeding discipline.
    EXPECT_EQ(a.on_time_fraction, b.on_time_fraction);
    EXPECT_EQ(a.consumed_energy_nj, b.consumed_energy_nj);
    EXPECT_EQ(a.backup_energy_nj, b.backup_energy_nj);
    EXPECT_EQ(a.mean_psnr, b.mean_psnr);
    EXPECT_EQ(a.mean_mse, b.mean_mse);
}

TEST(SweepRunner, ParallelBitIdenticalToSerial)
{
    runner::SweepRunner serial(tinySpec(1));
    const auto serial_report = serial.run();
    ASSERT_TRUE(serial_report.allOk());
    EXPECT_EQ(serial_report.jobs_used, 1u);

    runner::SweepRunner parallel(tinySpec(4));
    const auto parallel_report = parallel.run();
    ASSERT_TRUE(parallel_report.allOk());
    EXPECT_EQ(parallel_report.jobs_used, 4u);

    ASSERT_EQ(serial_report.results.size(),
              parallel_report.results.size());
    for (std::size_t i = 0; i < serial_report.results.size(); ++i) {
        expectSameResult(serial_report.results[i].result,
                         parallel_report.results[i].result);
    }
}

TEST(SweepRunner, ParallelJournaledSweepResumesBitIdentical)
{
    // Four workers finish jobs at once; runJobs() hands each result to
    // the folder that keeps the journal one call at a time, as in
    // `sweep --arena --jobs 4`. The reopened journal must hold every
    // job, and a resume must reproduce the serial run's results from it.
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("inc_runner_journal_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    const runner::SweepSpec spec = tinySpec(4);
    const auto jobs = runner::expandSweep(spec);
    const std::string fp =
        runner::SweepJournal::fingerprint(spec, jobs, "test");
    std::string error;
    {
        auto journal = runner::SweepJournal::open(dir);
        fleet::ResultFolder folder(jobs);
        ASSERT_TRUE(folder.keepJournal(journal.get(), fp, &error)) << error;
        runner::SweepRunner parallel(spec);
        ASSERT_TRUE(folder.runUnfolded(parallel, {}, &error)) << error;
        EXPECT_EQ(folder.recordedCount(), jobs.size());
    }

    auto journal = runner::SweepJournal::open(dir);
    ASSERT_EQ(journal->completedCount(), jobs.size());
    fleet::ResultFolder resumed(jobs);
    ASSERT_TRUE(resumed.keepJournal(journal.get(), fp, &error)) << error;
    ASSERT_TRUE(resumed.complete());
    const auto resumed_report = resumed.takeReport(0.0, 1);
    const auto serial_report = runner::SweepRunner(tinySpec(1)).run();
    ASSERT_TRUE(resumed_report.allOk());
    ASSERT_EQ(resumed_report.results.size(), serial_report.results.size());
    for (std::size_t i = 0; i < serial_report.results.size(); ++i)
        EXPECT_EQ(sim::serializeResult(resumed_report.results[i].result),
                  sim::serializeResult(serial_report.results[i].result))
            << "job " << i;
    fs::remove_all(dir);
}

TEST(SweepRunner, RunJobsDeliversEachGivenJobOnceAndOneAtATime)
{
    // A fleet shard in miniature: a slice of the expansion, on four
    // threads whose jobs finish out of order. Each given job arrives
    // once, with run()'s result for it, and no two deliveries overlap
    // (the callback holds no lock of its own).
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(4 - spec.index % 4));
        sim::SimResult r;
        r.forward_progress = 100 + spec.index;
        return r;
    };
    const runner::SweepSpec spec = tinySpec(4);
    const auto jobs = runner::expandSweep(spec);
    runner::SweepRunner sweep(spec, body);
    bool in_delivery = false;
    bool overlapped = false;
    std::vector<std::size_t> delivered;
    EXPECT_EQ(sweep.runJobs(std::span(jobs).subspan(1, 3),
                            [&](runner::JobResult jr) {
                                overlapped = overlapped || in_delivery;
                                in_delivery = true;
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(2));
                                EXPECT_EQ(jr.result.forward_progress,
                                          100 + jr.spec.index);
                                delivered.push_back(jr.spec.index);
                                in_delivery = false;
                            }),
              4u);
    EXPECT_FALSE(overlapped);
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SweepRunner, AggregationOrderIsJobIndexOrder)
{
    // A body whose completion order is adversarial (later jobs finish
    // first) must still aggregate in job-index order.
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(4 - spec.index % 4));
        sim::SimResult r;
        r.forward_progress = spec.index;
        return r;
    };
    runner::SweepRunner sweep(tinySpec(4), body);
    const auto report = sweep.run();
    ASSERT_EQ(report.results.size(), 4u);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        EXPECT_EQ(report.results[i].spec.index, i);
        EXPECT_EQ(report.results[i].result.forward_progress, i);
        EXPECT_TRUE(report.results[i].ok);
        EXPECT_EQ(report.results[i].attempts, 1);
    }
}

// ---------------------------------------------------------------------
// The memos the jobs of a sweep share

/**
 * Threads asking for overlapping frames in different orders, over more
 * keys than the memo holds, so hits, racing misses and evictions
 * interleave. Each must get the bytes a serial caller got. Under the
 * INCIDENTAL_TSAN CI job this is the memo's lock-discipline proof.
 */
TEST(FrameMemo, ConcurrentCallersGetTheSerialBytes)
{
    struct Key
    {
        int side;
        util::SceneKind kind;
        std::uint64_t seed;
        int frame;
    };
    std::vector<Key> keys;
    std::size_t key_bytes = 0;
    for (util::SceneKind kind :
         {util::SceneKind::scene, util::SceneKind::texture})
        for (std::uint64_t seed : {11u, 12u})
            for (int frame = 0; frame < 24; ++frame)
                keys.push_back({64, kind, seed, frame});
    key_bytes += keys.size() * 64 * 64;
    // Cheap gradient frames carry the set past what the memo holds.
    for (int frame = 0;
         key_bytes <= util::SceneGenerator::kFrameMemoBytes + 64 * 1024;
         ++frame) {
        keys.push_back({128, util::SceneKind::gradient, 11, frame});
        key_bytes += 128 * 128;
    }
    ASSERT_GT(key_bytes, util::SceneGenerator::kFrameMemoBytes);
    const auto frameOf = [](const Key &k) {
        return util::SceneGenerator(k.side, k.side, k.kind, k.seed)
            .frame(k.frame);
    };
    std::vector<util::Image> serial;
    for (const Key &k : keys)
        serial.push_back(frameOf(k));

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::size_t n = keys.size();
            for (int pass = 0; pass < 2; ++pass) {
                for (std::size_t j = 0; j < n; ++j) {
                    // Each thread starts elsewhere; odd ones walk back.
                    const std::size_t step = (j + 13 * t) % n;
                    const std::size_t i = t % 2 ? n - 1 - step : step;
                    if (!(frameOf(keys[i]) == serial[i]))
                        ++mismatches[t];
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

/**
 * Threads building simulators of overlapping kernels in different
 * orders, over more (kernel, seed) keys than the frame-period
 * calibration memo holds, so hits, racing misses and evictions
 * interleave. Each must get the frame period a serial caller got. Under
 * the INCIDENTAL_TSAN CI job this is the memo's lock-discipline proof.
 * Small frames and seeds no other test here builds keep it quick.
 */
TEST(FrameCyclesMemo, ConcurrentSimulatorsGetTheSerialFramePeriod)
{
    struct Key
    {
        const char *kernel;
        std::uint64_t seed;
    };
    std::vector<Key> keys;
    for (const char *kernel : {"sobel", "median", "tiff2bw", "integral"})
        for (std::uint64_t seed : {31u, 32u, 33u, 34u, 35u})
            keys.push_back({kernel, seed});
    ASSERT_GT(keys.size(), sim::kFrameCyclesMemoEntries);
    const trace::PowerTrace trace(std::vector<double>(1, 0.0), "dark");
    const auto periodOf = [&trace](const Key &k) {
        sim::SimConfig cfg;
        cfg.seed = k.seed;
        cfg.score_quality = false;
        sim::SystemSimulator s(kernels::makeKernel(k.kernel, 16, 16),
                               &trace, cfg);
        return s.run().frame_period_tenth_ms;
    };
    std::vector<double> serial;
    for (const Key &k : keys)
        serial.push_back(periodOf(k));

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::size_t n = keys.size();
            for (int pass = 0; pass < 2; ++pass) {
                for (std::size_t j = 0; j < n; ++j) {
                    // Each thread starts elsewhere; odd ones walk back.
                    const std::size_t step = (j + 7 * t) % n;
                    const std::size_t i = t % 2 ? n - 1 - step : step;
                    if (periodOf(keys[i]) != serial[i])
                        ++mismatches[t];
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------
// Failure capture & retry

TEST(SweepRunner, ThrowingJobLandsInFailureReport)
{
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) -> sim::SimResult {
        if (spec.index == 2)
            throw std::runtime_error("deliberate test failure");
        sim::SimResult r;
        r.forward_progress = 1;
        return r;
    };
    auto spec = tinySpec(4);
    spec.max_retries = 1;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();

    // The campaign completes: all four jobs have results.
    ASSERT_EQ(report.results.size(), 4u);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.failureCount(), 1u);

    const auto failures = report.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0]->spec.index, 2u);
    EXPECT_EQ(failures[0]->attempts, 2); // initial try + one retry
    EXPECT_EQ(failures[0]->error, "deliberate test failure");

    const std::string text = report.failureReport();
    EXPECT_NE(text.find("deliberate test failure"), std::string::npos);
    EXPECT_NE(text.find(failures[0]->spec.kernel), std::string::npos);
    EXPECT_NE(text.find("2 attempts"), std::string::npos);

    // Healthy jobs are unaffected.
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(report.results[i].ok);
        EXPECT_EQ(report.results[i].attempts, 1);
    }
}

TEST(SweepRunner, RetryRecoversTransientFailure)
{
    auto first_attempts = std::make_shared<std::atomic<int>>(0);
    auto body = [first_attempts](const runner::JobSpec &spec,
                                 const trace::PowerTrace &,
                                 util::Rng &) -> sim::SimResult {
        if (spec.index == 1 && first_attempts->fetch_add(1) == 0)
            throw std::runtime_error("transient");
        sim::SimResult r;
        r.forward_progress = 7;
        return r;
    };
    runner::SweepRunner sweep(tinySpec(2), body);
    const auto report = sweep.run();
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.results[1].attempts, 2);
    EXPECT_EQ(report.results[1].result.forward_progress, 7u);
    EXPECT_TRUE(report.results[1].error.empty());
}

TEST(SweepRunner, RetriesForkADistinctRngStream)
{
    // A draw-dependent failure: the job records its first draw on
    // attempt 0 and then throws whenever it sees that value again.
    // Replaying the identical RNG state on retry would re-fail
    // deterministically forever; the retry must fork a distinct stream.
    auto first_draw =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    auto attempts = std::make_shared<std::atomic<int>>(0);
    auto body = [first_draw, attempts](const runner::JobSpec &spec,
                                       const trace::PowerTrace &,
                                       util::Rng &rng) -> sim::SimResult {
        if (spec.index == 0) {
            const std::uint64_t draw = rng.next();
            if (attempts->fetch_add(1) == 0) {
                first_draw->store(draw);
                throw std::runtime_error("draw-dependent failure");
            }
            if (draw == first_draw->load())
                throw std::runtime_error("identical RNG state replayed");
        }
        return sim::SimResult{};
    };
    auto spec = tinySpec(1);
    spec.max_retries = 2;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();
    EXPECT_TRUE(report.allOk()) << report.failureReport();
    EXPECT_EQ(report.results[0].attempts, 2);
}

TEST(SweepRunner, NoRetryWhenMaxRetriesZero)
{
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) -> sim::SimResult {
        if (spec.index == 0)
            throw std::runtime_error("boom");
        return sim::SimResult{};
    };
    auto spec = tinySpec(2);
    spec.max_retries = 0;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.results[0].attempts, 1);
}

// ---------------------------------------------------------------------
// util::ensureDir (bench output plumbing)

TEST(EnsureDir, CreatesNestedDirectories)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "inc_runner_test_dir";
    fs::remove_all(root);

    const std::string nested = (root / "a" / "b" / "c").string();
    EXPECT_TRUE(util::ensureDir(nested));
    EXPECT_TRUE(fs::is_directory(nested));
    EXPECT_TRUE(util::ensureDir(nested)); // idempotent

    // A regular file in the way is reported, not fatal.
    const std::string blocked = (root / "file").string();
    std::ofstream(blocked) << "x";
    EXPECT_FALSE(util::ensureDir(blocked));

    fs::remove_all(root);
}

} // namespace
