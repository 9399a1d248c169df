#include "sim/active_checkpoint.h"

#include "energy/capacitor.h"
#include "nvm/retention_policy.h"
#include "util/logging.h"

namespace inc::sim
{

ActiveCheckpointResult
runActiveCheckpoint(const trace::PowerTrace &trace,
                    const ActiveCheckpointConfig &config)
{
    if (config.checkpoint_interval_instr <= 0)
        util::fatal("checkpoint interval must be positive");

    const energy::EnergyModel model(config.energy);
    // Application instructions use the image-kernel blend (the same
    // workload the NVP runs): mostly ALU with a realistic load/store/
    // multiply share.
    const double instr_energy =
        0.55 * model.instructionEnergyNj(isa::Op::add, 8) +
        0.25 * model.instructionEnergyNj(isa::Op::ld8, 8) +
        0.10 * model.instructionEnergyNj(isa::Op::st8, 8) +
        0.10 * model.instructionEnergyNj(isa::Op::mul, 8);
    // Software checkpoint: a bookkeeping prologue, then state_bytes
    // copied through load+store pairs (2 cycles / byte).
    const double prologue_energy =
        config.checkpoint_overhead_instr * instr_energy;
    const double byte_energy =
        model.instructionEnergyNj(isa::Op::ld8, 8) +
        model.instructionEnergyNj(isa::Op::st8, 8);
    const double checkpoint_energy =
        prologue_energy +
        static_cast<double>(config.state_bytes) * byte_energy;

    energy::CapacitorParams cap_params;
    cap_params.capacity_nj = config.capacity_nj;
    cap_params.efficiency = config.efficiency;
    energy::Capacitor cap(cap_params);

    ActiveCheckpointResult result;
    constexpr int kCyclesPerSample = 100;
    bool on = false;
    bool has_image = false;     // an intact checkpoint exists in FeRAM
    int copy_progress = -1;     // bytes copied; -1 = no copy in flight
    double since_checkpoint = 0.0; // committed-but-unsaved instructions
    double off_tenth_ms = 0.0;     // dark time since last brown-out
    const double start_threshold =
        config.restart_overhead_instr * instr_energy +
        checkpoint_energy * 1.5;

    // A torn copy loses the in-flight image; the double-buffered commit
    // keeps the previous checkpoint intact, so only the work since it is
    // re-executed.
    const auto tear = [&] {
        ++result.torn_checkpoints;
        copy_progress = -1;
        result.instructions_lost +=
            static_cast<std::uint64_t>(since_checkpoint);
        since_checkpoint = 0.0;
        on = false;
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        cap.step(trace.at(i), 0.1);

        if (!on) {
            if (cap.energyNj() >= start_threshold) {
                on = true;
                // Reboot + restore-from-checkpoint software path. Low
                // bits of the image may have expired while dark
                // (checkpoint_policy-shaped FeRAM retention).
                if (has_image) {
                    ++result.restores;
                    result.restore_bit_expirations +=
                        static_cast<std::uint64_t>(nvm::expiredCutoff(
                            config.checkpoint_policy, off_tenth_ms));
                }
                off_tenth_ms = 0.0;
                cap.drain(config.restart_overhead_instr * instr_energy);
                result.instructions_executed +=
                    static_cast<std::uint64_t>(
                        config.restart_overhead_instr);
            } else {
                off_tenth_ms += 1.0; // one 0.1 ms sample in the dark
                continue;
            }
        }

        double budget = kCyclesPerSample;
        while (budget >= 1.0 && on) {
            if (cap.energyNj() < instr_energy) {
                // Brown-out: everything since the last checkpoint is
                // re-executed after reboot (volatile state lost), and
                // any copy in flight is torn.
                if (copy_progress >= 0) {
                    tear();
                } else {
                    result.instructions_lost +=
                        static_cast<std::uint64_t>(since_checkpoint);
                    since_checkpoint = 0.0;
                    on = false;
                }
                break;
            }
            if (copy_progress < 0 &&
                since_checkpoint >=
                    static_cast<double>(config.checkpoint_interval_instr)) {
                // Optimistic start: the software has only a voltage
                // trigger, not income foresight, so the copy begins as
                // soon as the prologue and first byte are covered and
                // may tear partway through.
                if (cap.energyNj() < prologue_energy + byte_energy)
                    break; // wait for charge before starting the copy
                cap.drain(prologue_energy);
                budget -= config.checkpoint_overhead_instr;
                result.checkpoint_energy_nj += prologue_energy;
                copy_progress = 0;
                continue;
            }
            if (copy_progress >= 0) {
                if (cap.energyNj() < byte_energy) {
                    tear();
                    break;
                }
                cap.drain(byte_energy);
                result.checkpoint_energy_nj += byte_energy;
                budget -= 2.0; // ld8 + st8 per byte
                if (++copy_progress >= config.state_bytes) {
                    copy_progress = -1;
                    has_image = true;
                    ++result.checkpoints;
                    result.forward_progress +=
                        static_cast<std::uint64_t>(since_checkpoint);
                    since_checkpoint = 0.0;
                }
                continue;
            }
            cap.drain(instr_energy);
            ++result.instructions_executed;
            since_checkpoint += 1.0;
            budget -= 1.0;
        }
    }
    // Work since the final checkpoint never persisted.
    result.instructions_lost +=
        static_cast<std::uint64_t>(since_checkpoint);

    return result;
}

} // namespace inc::sim
