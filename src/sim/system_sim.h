/**
 * @file
 * The NVP + energy-harvesting co-simulator (paper Sec. 7, Fig. 10).
 *
 * Replaces the authors' ModelSim-RTL + MATLAB/Python system framework:
 * the functional core (nvp::Core) plays the role of the RTL while this
 * class implements the system level — capacitor, front-end efficiency,
 * thresholds, backup/restore sequencing, the sensor's frame arrivals,
 * and the metric collection (forward progress, backup counts, system-on
 * time, per-frame output quality).
 *
 * Time advances in 0.1 ms trace samples; within an ON sample the core
 * executes up to 100 cycles (1 MHz clock). Threshold structure:
 *
 *   backup threshold = guard * backup energy of the worst-case lane
 *                      configuration under the configured retention
 *                      policy (the reserve that must never be touched);
 *   start threshold  = backup threshold + restore energy + a minimum
 *                      work quantum at the configured minimum precision
 *                      (this ordering yields Fig. 9's hierarchy:
 *                      precise < incidental(2,8) < incidental(6,8) <
 *                      always-4-SIMD).
 */

#ifndef INC_SIM_SYSTEM_SIM_H
#define INC_SIM_SYSTEM_SIM_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "approx/bitwidth_controller.h"
#include "approx/quality.h"
#include "core/incidental.h"
#include "energy/capacitor.h"
#include "energy/energy_model.h"
#include "kernels/kernel.h"
#include "sim/strategy/strategy.h"
#include "trace/power_trace.h"

namespace inc::obs
{
struct Observer;
}

namespace inc::sim
{

/** Full system configuration. */
struct SimConfig
{
    energy::CapacitorParams capacitor{};
    energy::EnergyParams energy{};
    approx::BitwidthConfig bits{};
    core::ControllerConfig controller{};

    /**
     * Core configuration, including the interpreter engine
     * (core.engine). The `predecoded` fast path additionally enables
     * quantum stepping: the per-step backup-reserve comparison is
     * skipped for a whole sample when the stored energy provably cannot
     * fall to the reserve within it (see DESIGN.md §11). Both engines
     * are bit-identical by contract — enforced by
     * tests/test_engine_diff.cc and fuzz --engine-diff.
     */
    nvp::CoreConfig core{};

    /**
     * Income calibration factor applied to the trace's power samples.
     * The paper reports 42 % system-on time for the precise 8-bit NVP
     * (0.209 mW @ 1 MHz) on its watch traces (Fig. 9), which requires a
     * harvest-to-consumption ratio well above the traces' 10-40 uW
     * average; the default scale reproduces that operating regime (see
     * EXPERIMENTS.md, calibration notes).
     */
    double income_scale = 12.0;

    /** Safety margin on the reserved backup energy. */
    double backup_guard = 1.05;

    /** Minimum work quantum (instructions) covered by the start
     *  threshold. */
    int start_quantum_instr = 64;

    /** Sensor frame period in 0.1 ms units; 0 = auto-calibrate to
     *  frame_period_factor x the precise frame compute time. */
    double frame_period_tenth_ms = 0.0;
    double frame_period_factor = 2.0;

    /** Score output quality against the golden model. */
    bool score_quality = true;

    std::uint64_t seed = 2017;

    /**
     * Observability sink (src/obs). When non-null the run publishes the
     * metric schema of obs/schema.h into its registry (and Chrome-trace
     * events into its tracer, if one is attached). Observation is
     * non-perturbing: attaching an observer never changes simulation
     * results. Not owned; must outlive the simulator.
     */
    obs::Observer *obs = nullptr;

    /**
     * Backup strategy attached to the run (DESIGN.md §14). Strategies
     * are a ckpt.* accounting overlay over the simulation: they never
     * feed back into the capacitor, core or data memory, so crash-free
     * results are bit-identical across all registered strategies
     * (enforced by tests/test_strategy_conformance and fuzz --modes
     * strategy_diff).
     */
    StrategyKind strategy = StrategyKind::active;
};

/** Per-frame quality record. */
struct FrameScore
{
    std::uint32_t frame = 0;
    double mse = 0.0;
    double psnr = 0.0;
    double coverage = 0.0;
    int completions = 0; ///< times finished (recompute passes merge in)

    /** Byte sums of produced vs golden output — the size-style QoS used
     *  for JPEG in Table 2 (rate bytes dominate the sum). */
    double out_byte_sum = 0.0;
    double golden_byte_sum = 0.0;

    /**
     * Data age when the frame first completed, 0.1 ms units (capture to
     * first completion). Timeliness is the paper's core motivation:
     * "catching up quickly after a power failure may take priority over
     * the quality of response".
     */
    double first_completion_age = 0.0;
};

/** Aggregated run metrics. */
struct SimResult
{
    // Forward progress (paper's execution metric).
    std::uint64_t forward_progress = 0; ///< all lanes
    std::uint64_t main_instructions = 0; ///< lane 0 only
    std::uint64_t cycles_executed = 0;

    std::uint64_t backups = 0;
    std::uint64_t restores = 0;
    double on_time_fraction = 0.0;

    double income_energy_nj = 0.0;
    double consumed_energy_nj = 0.0;
    double backup_energy_nj = 0.0;
    double restore_energy_nj = 0.0;

    core::ControllerStats controller;
    nvm::RetentionFailureCounts retention_failures;

    /** Derived thresholds (copies of the simulator accessors, so sweep
     *  runners can report them from the result record alone). */
    double start_threshold_nj = 0.0;
    double backup_threshold_nj = 0.0;

    /** Bitwidth utilization ticks: [0]=off, [1..8] = bits (Fig. 18). */
    std::array<std::uint64_t, 9> bit_ticks{};

    // Quality.
    int frames_scored = 0;
    double mean_mse = 0.0;
    double mean_psnr = 0.0;
    double mean_coverage = 0.0;
    /** Mean data age at first completion, 0.1 ms units. */
    double mean_completion_age = 0.0;
    std::vector<FrameScore> frame_scores;

    double frame_period_tenth_ms = 0.0;
    std::uint64_t frames_captured = 0;
    /** Captures skipped by the DMA interlock (input slot in use). */
    std::uint64_t frames_dropped_by_dma = 0;
};

/** The co-simulator. */
class SystemSimulator
{
  public:
    SystemSimulator(kernels::Kernel kernel, const trace::PowerTrace *trace,
                    SimConfig config);

    /** Run over the whole trace and return the aggregated metrics.
     *  Equivalent to stepSample() until exhausted, then finalize(). */
    SimResult run();

    /**
     * Advance the co-simulation by one 0.1 ms trace sample. Returns
     * true while more work remains (trace not exhausted, core not
     * halted); a false return means the next call would do nothing and
     * finalize() may be taken. The split from run() exists so a caller
     * can time every sample from outside the library: the benchmark's
     * tracing runner (perfbench/trace_campaign.cc) classifies and times
     * each call to build its per-layer breakdown. It is
     * observationally identical to run() (run() IS this loop).
     */
    bool stepSample();

    /** Aggregate and return the run metrics. Call exactly once, after
     *  stepSample() returns false. */
    SimResult finalize();

    /** The controller (for scripted recompute requests in examples). */
    core::IncidentalController &controller() { return *controller_; }

    /** Live data memory (for differential checkers in src/check). */
    nvp::DataMemory &memory() { return *mem_; }

    /** The attached backup strategy (conformance tests inspect its
     *  stats). */
    const CheckpointStrategy &strategy() const { return *strategy_; }

    /** Derived thresholds (for inspection / tests). */
    double startThresholdNj() const { return start_threshold_nj_; }
    double backupThresholdNj() const { return backup_threshold_nj_; }

  private:
    void captureFramesUpTo(std::size_t sample);
    void scoreFrame(const core::FrameCompletion &completion);
    void performBackup(std::size_t sample);
    void performRestore(std::size_t sample);

    /** Fold the run's counters + energy ledger into the observer's
     *  registry (end of run()). */
    void publishMetrics(std::uint64_t on_samples);
    /** Close the current power phase span on the tracer. */
    void tracePowerPhase(std::size_t now_sample, bool next_on);

    kernels::Kernel kernel_;
    const trace::PowerTrace *trace_;
    SimConfig config_;

    util::Rng rng_;
    util::SceneGenerator scene_;
    energy::EnergyModel energy_model_;
    energy::Capacitor capacitor_;
    approx::BitwidthController bit_ctrl_;
    std::unique_ptr<nvp::DataMemory> mem_;
    std::unique_ptr<nvp::Core> core_;
    std::unique_ptr<core::IncidentalController> controller_;
    std::unique_ptr<CheckpointStrategy> strategy_;

    double start_threshold_nj_ = 0.0;
    double backup_threshold_nj_ = 0.0;
    double next_start_threshold_nj_ = 0.0;
    int reserve_versions_ = 1;

    /**
     * Quantum-stepping level: stored energy strictly above this at the
     * top of a sample guarantees the backup-reserve comparison cannot
     * trip anywhere inside the sample (worst-case reserve plus the
     * worst-case drain of a full cycle budget), so the per-step check
     * is provably dead and may be skipped. assem steps drain an
     * unbounded assemble cost and therefore re-derive the guarantee.
     */
    double quantum_safe_level_nj_ = 0.0;

    // Sensor state.
    double frame_period_ = 0.0;
    std::int64_t newest_frame_ = -1;
    std::uint64_t captures_attempted_ = 0;
    std::size_t current_sample_ = 0;
    std::map<std::uint32_t, std::size_t> capture_time_;
    std::map<std::uint32_t, std::vector<std::uint8_t>> golden_cache_;

    // Execution state.
    std::size_t sample_cursor_ = 0; ///< next trace sample to execute
    std::uint64_t on_samples_ = 0;
    bool first_start_ = true;
    bool finalized_ = false;
    bool on_ = false;
    std::size_t off_since_ = 0;
    bool waiting_for_frame_ = false;
    std::uint32_t wanted_frame_ = 0;
    bool lane0_frame_valid_ = false; ///< first markrp reached

    SimResult result_;
    std::map<std::uint32_t, FrameScore> scores_;

    // Observability state (inert when obs_ is null; the per-instruction
    // accumulation sites additionally compile out with INCIDENTAL_OBS=OFF).
    obs::Observer *obs_ = nullptr;
    double obs_initial_nj_ = 0.0;
    double obs_fetch_nj_ = 0.0;
    double obs_datapath_nj_ = 0.0;
    double obs_idle_nj_ = 0.0;
    double obs_assemble_nj_ = 0.0;
    double obs_unfunded_nj_ = 0.0;
    std::uint64_t obs_adopted_cycles_ = 0;
    std::uint64_t obs_samples_ = 0;
    std::uint64_t obs_cold_boots_ = 0;
    std::size_t obs_phase_start_ = 0; ///< sample the power phase began
};

} // namespace inc::sim

#endif // INC_SIM_SYSTEM_SIM_H
