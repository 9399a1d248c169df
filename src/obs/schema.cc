#include "obs/schema.h"

#include <cmath>

#include "obs/json.h"
#include "obs/obs.h"

namespace inc::obs
{

namespace
{

/** Collect "name: expected vs actual" style violation lines. */
class Checker
{
  public:
    explicit Checker(const MetricsRegistry &m) : m_(m) {}

    std::uint64_t c(const char *name) const
    {
        return m_.counterValue(name);
    }
    double g(const char *name) const { return m_.gaugeValue(name); }

    void equal(const std::string &what, std::uint64_t lhs,
               std::uint64_t rhs)
    {
        if (lhs != rhs)
            problems_.push_back(what + ": " + std::to_string(lhs) +
                                " != " + std::to_string(rhs));
    }

    void atMost(const std::string &what, std::uint64_t lhs,
                std::uint64_t rhs)
    {
        if (lhs > rhs)
            problems_.push_back(what + ": " + std::to_string(lhs) +
                                " > " + std::to_string(rhs));
    }

    void close(const std::string &what, double lhs, double rhs,
               double rel_tol, double scale)
    {
        const double tol =
            rel_tol * std::max(1.0, std::fabs(scale));
        if (std::fabs(lhs - rhs) > tol)
            problems_.push_back(what + ": " + formatJsonNumber(lhs) +
                                " != " + formatJsonNumber(rhs) +
                                " (tol " + formatJsonNumber(tol) + ")");
    }

    std::vector<std::string> take() { return std::move(problems_); }

  private:
    const MetricsRegistry &m_;
    std::vector<std::string> problems_;
};

} // namespace

std::vector<std::string>
verifySimMetricIdentities(const MetricsRegistry &m,
                          [[maybe_unused]] double rel_tol)
{
    Checker ck(m);
    if (!m.has(kSimSamples)) {
        std::vector<std::string> p;
        p.push_back("registry has no sim.samples — not a system-sim "
                    "metrics registry");
        return p;
    }

    // Backups: every attempt either committed or tore.
    ck.equal("sim.backup.attempts == committed + torn",
             ck.c(kSimBackupAttempts),
             ck.c(kSimBackupsCommitted) + ck.c(kSimBackupsTorn));

    // Restores: each restore follows a committed backup, except the
    // per-run cold boot(s).
    ck.atMost("sim.restore.successes <= backup.committed + cold_boots",
              ck.c(kSimRestores),
              ck.c(kSimBackupsCommitted) + ck.c(kSimColdBoots));

    // Adopted-lane cycles are a subset of all executed cycles.
    ck.atMost("sim.adopted_lane_cycles <= sim.cycles",
              ck.c(kSimAdoptedLaneCycles), ck.c(kSimCycles));
    ck.atMost("sim.instructions <= sim.forward_progress",
              ck.c(kSimInstructions), ck.c(kSimForwardProgress));
    ck.atMost("sim.on_samples <= sim.samples", ck.c(kSimOnSamples),
              ck.c(kSimSamples));

    // The bitwidth controller ticks exactly once per processed sample
    // (0 = off), so occupancy partitions the timeline.
    std::uint64_t tick_sum = 0;
    for (int b = 0; b <= 8; ++b)
        tick_sum += ck.c((std::string(kBitTicksPrefix) +
                          std::to_string(b))
                             .c_str());
    ck.equal("sum(bits.ticks.*) == sim.samples", tick_sum,
             ck.c(kSimSamples));

    // Sensor DMA: every capture attempt either lands or is dropped by
    // the slot interlock.
    ck.equal("frames captured + dma_dropped == capture_attempts",
             ck.c(kSimFramesCaptured) + ck.c(kSimFramesDmaDropped),
             ck.c(kSimFrameAttempts));

    // Checkpoint-strategy overlay (src/sim/strategy). Guarded on the
    // schema being present: pre-strategy registries (older golden
    // files, non-sim producers) simply skip the block.
    if (m.has(kCkptBackups)) {
        // A strategy commits exactly once per committed in-situ backup.
        ck.equal("ckpt.backup.events == sim.backup.committed",
                 ck.c(kCkptBackups), ck.c(kSimBackupsCommitted));
        // Wake-up restores plus cold boots partition sim restores
        // (sim.restore.successes counts cold boots; the strategy's
        // restore hook runs only on the performRestore path).
        ck.equal("ckpt.restore.events + cold_boots == sim restores",
                 ck.c(kCkptRestores) + ck.c(kSimColdBoots),
                 ck.c(kSimRestores));
        // A dirty-tracking strategy may only UNDER-write, never
        // over-write, the words it claims to cover.
        ck.atMost("ckpt.dirty.words_written <= words_tracked",
                  ck.c(kCkptWordsWritten), ck.c(kCkptWordsTracked));
        // Every serviced restore needs some committed image behind it.
        ck.atMost("ckpt.restore.events <= backups + snapshots",
                  ck.c(kCkptRestores),
                  ck.c(kCkptBackups) + ck.c(kCkptSnapshots));
    }

#if INC_OBS_ENABLED
    // The ledger split and the unfunded-demand tracking accumulate on
    // the hot path, so — like the raw hot counters below — they are
    // only cross-checked when the increments were compiled in.
    const double consumed = ck.g(kEnergyConsumed);
    ck.close("fetch + datapath + idle + assemble == consumed",
             ck.g(kEnergyFetch) + ck.g(kEnergyDatapath) +
                 ck.g(kEnergyIdle) + ck.g(kEnergyAssemble),
             consumed, rel_tol, consumed);

    // Conservation closes the books: everything that entered the
    // capacitor either was drained by compute/backup/restore, leaked,
    // or is still stored. Unfunded drain demand (clamped at an empty
    // capacitor) is credited back.
    const double in_total =
        ck.g(kEnergyInitial) + ck.g(kEnergyIncome);
    ck.close("income + initial == drains + leak + stored - unfunded",
             in_total,
             consumed + ck.g(kEnergyBackup) + ck.g(kEnergyRestore) +
                 ck.g(kEnergyLeak) + ck.g(kEnergyStoredFinal) -
                 ck.g(kEnergyUnfunded),
             rel_tol, in_total);

    // Hot-path counters (compiled out with INCIDENTAL_OBS=OFF, so only
    // cross-checked when the macros were live).
    ck.equal("core.steps == sim.instructions", ck.c(kCoreSteps),
             ck.c(kSimInstructions));
    ck.equal("core.lane_commits == sim.forward_progress",
             ck.c(kCoreLaneCommits), ck.c(kSimForwardProgress));
    ck.equal("core.steps == sum of instruction classes",
             ck.c(kCoreSteps),
             ck.c(kCoreInstrAlu) + ck.c(kCoreInstrLoad) +
                 ck.c(kCoreInstrStore) + ck.c(kCoreInstrBranch) +
                 ck.c(kCoreInstrJump) + ck.c(kCoreInstrIncidental) +
                 ck.c(kCoreInstrSystem));
    ck.atMost("core.branch_taken <= core.instr.branch",
              ck.c(kCoreBranchTaken), ck.c(kCoreInstrBranch));
    ck.equal("mem.assemble_bytes == core.assemble_bytes",
             ck.c(kMemAssembleBytes), ck.c(kCoreAssembleBytes));
    ck.atMost("mem.ac_truncated_loads <= mem.loads",
              ck.c(kMemAcTruncatedLoads), ck.c(kMemLoads));
    ck.atMost("mem.ac_truncated_stores <= mem.stores",
              ck.c(kMemAcTruncatedStores), ck.c(kMemStores));
    ck.atMost("queue.dropped <= queue.requests", ck.c(kQueueDropped),
              ck.c(kQueueRequests));
#endif

    return ck.take();
}

} // namespace inc::obs
