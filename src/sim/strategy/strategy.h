/**
 * @file
 * The pluggable backup-strategy zoo (DESIGN.md §14).
 *
 * The paper's NVP performs a passive in-situ backup: when the capacitor
 * reaches the reserve, distributed FeRAM flops capture all live state
 * at once. That is one point in the intermittent-computing design
 * space; the related work maps out others (ROADMAP "backup-strategy
 * zoo"). This subsystem puts a strategy interface behind the
 * co-simulator's checkpoint events so those baselines run head-to-head
 * on every existing bench, report and fuzzer invariant:
 *
 *   active   — the full-image double-buffered software checkpoint:
 *              every backup persists the complete main data image.
 *   freezer  — Freezer-style dirty-state tracking (arXiv 2101.09968):
 *              a write-intercept bitmap in nvp::DataMemory marks
 *              4-byte words touched since each image slot last synced;
 *              a backup copies only those, cutting backup bytes/energy
 *              by the workload's write locality.
 *   ondemand — Rapid-Recovery-style placement (arXiv 2209.08826):
 *              in addition to reserve-triggered backups, a full
 *              snapshot is taken when the stored-energy fraction
 *              crosses a watermark downward, trading extra snapshot
 *              writes for a fresher image (lower recovery latency).
 *
 * Shared contract, enforced by tests/test_strategy_conformance.cc and
 * the fuzzer's strategy_diff mode: a strategy is an accounting
 * overlay. It observes the simulation (onBackup/onRestore/onSample)
 * and counts what its image commits would write, but it NEVER feeds
 * back into the capacitor, core, controller or data memory — crash-
 * free runs are bit-identical across all registered strategies and
 * all execution engines, and the backup-energy comparison lives purely
 * in the ckpt.* metrics (obs/schema.h). No image bytes are copied:
 * every figure depends only on which words a commit covers.
 *
 * The registry mirrors nvp::allExecEngines(): tests, benches and the
 * CLI iterate allStrategies() so a newly registered strategy is
 * automatically pulled into the conformance matrix.
 */

#ifndef INC_SIM_STRATEGY_STRATEGY_H
#define INC_SIM_STRATEGY_STRATEGY_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace inc::obs
{
class MetricsRegistry;
}

namespace inc::nvp
{
class DataMemory;
}

namespace inc::sim
{

/** Registered checkpoint strategies. */
enum class StrategyKind : int
{
    active = 0,
    freezer,
    ondemand,
};

constexpr int kNumStrategies = 3;

/** Every registered strategy, `active` (the semantic baseline) first.
 *  Conformance tests and the CLI iterate this. */
const std::array<StrategyKind, kNumStrategies> &allStrategies();

/** Canonical CLI/report name. */
const char *strategyName(StrategyKind kind);

/** Comma-separated list of every registered name, like
 *  nvp::execEngineNames() (error messages, name checks). */
std::string strategyNames();

/** Parse a CLI name; nullopt when unknown. */
std::optional<StrategyKind> strategyFromName(const std::string &name);

/** What a strategy did over one run — the ckpt.* metric source. All
 *  fields are additive so merged sweep registries stay meaningful. */
struct StrategyStats
{
    /** Image commits triggered by in-situ backup events. */
    std::uint64_t backups = 0;
    /** Extra threshold-triggered image commits (ondemand watermarks). */
    std::uint64_t snapshots = 0;
    /** Restore events serviced (cold boots excluded). */
    std::uint64_t restores = 0;
    /** Bytes written into the image across all commits. */
    std::uint64_t backup_bytes = 0;
    /** Bytes read back across all restores. */
    std::uint64_t restore_bytes = 0;
    /** 4-byte words written / words covered per commit (dirty ratio =
     *  words_written / words_tracked after any merge). */
    std::uint64_t words_written = 0;
    std::uint64_t words_tracked = 0;
    /** Modeled backup energy (ld8+st8 per byte). Reported, never
     *  drained — strategies must not perturb the simulation. */
    double backup_energy_nj = 0.0;
    /** Modeled restore latency (copy loop over the image), us. */
    double restore_latency_us = 0.0;

    bool operator==(const StrategyStats &) const = default;
};

/**
 * One checkpoint strategy attached to a SystemSimulator run.
 *
 * Lifecycle hooks are observation-only (see the file comment): the
 * simulator calls onBackup() at every committed in-situ backup,
 * onRestore() at every wake-up restore, onColdBoot() on the first
 * power-up, and onSample() once per processed ON sample with the
 * capacitor fill fraction.
 */
class CheckpointStrategy
{
  public:
    CheckpointStrategy(StrategyKind kind, double backup_nj_per_byte,
                       nvp::DataMemory *mem);
    virtual ~CheckpointStrategy();

    CheckpointStrategy(const CheckpointStrategy &) = delete;
    CheckpointStrategy &operator=(const CheckpointStrategy &) = delete;

    StrategyKind kind() const { return kind_; }

    /** A committed in-situ backup event at @p sample. */
    virtual void onBackup(std::size_t sample) = 0;

    /** One processed ON sample; @p stored_fraction is the capacitor
     *  fill in [0, 1]. Default: ignored. */
    virtual void onSample(std::size_t sample, double stored_fraction);

    /** A wake-up restore at @p sample. */
    virtual void onRestore(std::size_t sample);

    /** The run's first power-up (no image to restore). */
    virtual void onColdBoot(std::size_t sample);

    const StrategyStats &stats() const { return stats_; }

    /** Fold this run's ckpt.* metrics into @p registry. */
    void publish(obs::MetricsRegistry &registry) const;

  protected:
    /** Count one image commit into slot next_slot_; the next commit
     *  fills the other slot. */
    void commit();

    /** Commit the full main image (every word written). */
    void commitFullImage();

    nvp::DataMemory *mem_ = nullptr;
    /** Modeled energy per image byte (ld8+st8 pair), nJ. */
    double backup_nj_per_byte_ = 0.0;
    StrategyStats stats_;
    /** The double-buffered image slot the next commit fills. */
    std::size_t next_slot_ = 1;
    /** Commits so far (a restore reads the image back only once one
     *  exists). */
    std::uint64_t commits_ = 0;

  private:
    StrategyKind kind_;
};

/** Build the @p kind strategy over @p mem, charging
 *  @p backup_nj_per_byte per image byte (the freezer enables mem's
 *  dirty-word tracking as a side effect). */
std::unique_ptr<CheckpointStrategy>
makeStrategy(StrategyKind kind, double backup_nj_per_byte,
             nvp::DataMemory *mem);

} // namespace inc::sim

#endif // INC_SIM_STRATEGY_STRATEGY_H
