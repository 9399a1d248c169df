/**
 * Fig. 28 — the headline result: forward-progress gain of the
 * incidental NVP (fine-tuned Table 2 policies) over the precise
 * traditional NVP, per testbench per power profile.
 *
 * Paper: profile-average improvements per testbench cluster around
 * 3-6x, with an overall average of 4.28x. Gains come from (1) replacing
 * repeated precise execution with incidental SIMD work, (2) dynamic
 * approximation lowering energy per instruction, and (3) SIMD's shared
 * instruction-fetch energy.
 *
 * Runs the kernel x trace x {baseline, tuned} grid through the
 * runner::SweepRunner (INC_BENCH_JOBS workers); aggregation happens in
 * deterministic job-index order, so the table and CSV are byte-identical
 * at any job count.
 */

#include <cstdio>

#include "bench_common.h"
#include "runner/sweep.h"
#include "util/csv.h"

using namespace inc;

int
main()
{
    runner::SweepSpec spec;
    spec.kernels = kernels::kernelNames();
    spec.traces = bench::benchTraces();
    spec.variants = {
        {"baseline",
         [](const std::string &) {
             sim::SimConfig cfg = bench::baselineConfig();
             cfg.frame_period_factor = 0.75;
             return cfg;
         }},
        {"tuned",
         [](const std::string &kernel) {
             sim::SimConfig cfg = bench::tunedConfig(kernel);
             cfg.score_quality = false;
             return cfg;
         }},
    };
    spec.master_seed = bench::benchSeed();
    spec.jobs = bench::benchJobs();

    runner::SweepRunner sweep(spec);
    const runner::SweepReport report = sweep.run();
    if (!report.allOk()) {
        std::fputs(report.failureReport().c_str(), stderr);
        return 1;
    }

    const std::size_t num_traces = spec.traces.size();
    const std::size_t num_variants = spec.variants.size();
    auto fpAt = [&](std::size_t k, std::size_t t, std::size_t v) {
        const auto &r =
            report.results[(k * num_traces + t) * num_variants + v];
        return static_cast<double>(r.result.forward_progress);
    };

    util::Table table("Fig. 28 — FP gain of incidental computing & "
                      "backup over the precise NVP");
    std::vector<std::string> header{"testbench"};
    for (const auto &t : spec.traces)
        header.push_back(t.name());
    header.push_back("average");
    table.setHeader(header);

    util::CsvWriter csv;
    csv.setHeader(header);
    double overall = 0.0;
    int overall_n = 0;
    for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
        std::vector<std::string> row{spec.kernels[k]};
        std::vector<std::string> csv_row{spec.kernels[k]};
        double sum = 0.0;
        for (std::size_t t = 0; t < num_traces; ++t) {
            const double base_fp = fpAt(k, t, 0);
            const double gain = base_fp ? fpAt(k, t, 1) / base_fp : 0.0;
            sum += gain;
            overall += gain;
            ++overall_n;
            row.push_back(util::Table::num(gain, 2) + "x");
            csv_row.push_back(util::Table::num(gain, 4));
        }
        row.push_back(util::Table::num(
                          sum / static_cast<double>(num_traces), 2) +
                      "x");
        csv_row.push_back(util::Table::num(
            sum / static_cast<double>(num_traces), 4));
        table.addRow(row);
        csv.addRow(csv_row);
    }
    table.print();
    csv.write(bench::outDir() + "/fig28_overall_gain.csv");
    std::printf("overall average FP gain: %.2fx (paper: 4.28x, of "
                "which ~1.4x from backup/restore approximation)\n",
                overall / overall_n);
    // Wall time varies run to run; stdout carries only seeded results.
    std::fprintf(stderr, "sweep: %zu jobs on %u workers in %.1f s\n",
                 report.results.size(), report.jobs_used,
                 report.wall_seconds);
    return 0;
}
