/**
 * @file
 * Active (software) checkpointing baseline — the Hibernus / Mementos /
 * QuickRecall class of systems from the paper's related-work taxonomy:
 * a volatile MCU with on-chip FeRAM that periodically copies its state
 * out in software. "The active method is modest in cost, but it is
 * bounded by the backup speed and energy" (Sec. 9) — the checkpoint is
 * an instruction-by-instruction copy loop, work since the last
 * checkpoint is lost on every brown-out, and reboot runs a software
 * restore path. Contrast with the NVP's passive, in-situ,
 * microarchitectural backup (SystemSimulator).
 *
 * The FeRAM image is modelled by its size and the progress of its copy
 * loop (the energy, instructions and tears it costs); no image bytes
 * are materialised.
 */

#ifndef INC_SIM_ACTIVE_CHECKPOINT_H
#define INC_SIM_ACTIVE_CHECKPOINT_H

#include <cstdint>

#include "energy/energy_model.h"
#include "nvm/retention_policy.h"
#include "trace/power_trace.h"

namespace inc::sim
{

/** Active-checkpointing MCU configuration. */
struct ActiveCheckpointConfig
{
    /** Instructions between checkpoints (the tuning knob the class's
     *  papers sweep). */
    int checkpoint_interval_instr = 2000;

    /** Bytes of state each checkpoint copies to FeRAM. */
    int state_bytes = 256;

    /** Fixed bookkeeping instructions per checkpoint. */
    double checkpoint_overhead_instr = 50.0;

    /** Reboot + software-restore instructions per power-up. */
    double restart_overhead_instr = 400.0;

    /** On-chip capacitor (same class as the NVP's). */
    double capacity_nj = 2000.0;
    double efficiency = 0.70;

    /**
     * Retention shaping of the checkpoint image in FeRAM. With `full`
     * every bit survives any off period (the classic assumption of this
     * system class); shaped policies let low bits of the image expire
     * while the system is dark, which the result reports as
     * restore_bit_expirations.
     */
    nvm::RetentionPolicy checkpoint_policy = nvm::RetentionPolicy::full;

    energy::EnergyParams energy{};
};

/** Run metrics. */
struct ActiveCheckpointResult
{
    /** Instructions persisted via checkpoints. */
    std::uint64_t forward_progress = 0;

    /** All instructions executed (incl. later-lost and restart code). */
    std::uint64_t instructions_executed = 0;

    /** Instructions re-executed because a brown-out preceded the next
     *  checkpoint. */
    std::uint64_t instructions_lost = 0;

    std::uint64_t checkpoints = 0;
    double checkpoint_energy_nj = 0.0;

    /**
     * Checkpoints that browned out mid-copy. The copy loop is
     * interruptible (the software has no income foresight, only a
     * voltage trigger); a torn image is discarded — the model assumes
     * the double-buffered commit these systems use — so the previous
     * intact checkpoint is restored and the work since it is lost.
     */
    std::uint64_t torn_checkpoints = 0;

    /** Power-up software restore passes. */
    std::uint64_t restores = 0;

    /**
     * Sum over restores of the highest expired bit index of the
     * checkpoint image (nvm::expiredCutoff of the off duration
     * under checkpoint_policy). 0 with full retention.
     */
    std::uint64_t restore_bit_expirations = 0;
};

/** Simulate the active-checkpointing MCU over @p trace. */
ActiveCheckpointResult
runActiveCheckpoint(const trace::PowerTrace &trace,
                    const ActiveCheckpointConfig &config);

} // namespace inc::sim

#endif // INC_SIM_ACTIVE_CHECKPOINT_H
