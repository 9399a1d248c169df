#include "sim/active_checkpoint.h"

#include "energy/capacitor.h"
#include "nvm/retention_policy.h"
#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/schema.h"
#include "sim/strategy/image_store.h"
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
    std::uint64_t checkpoint_attempts = 0; ///< prologue starts
    bool on = false;
    bool has_image = false;     // an intact checkpoint exists in FeRAM
    int copy_progress = -1;     // bytes copied; -1 = no copy in flight

    // Materialised FeRAM: a double-buffered image plus commit metadata
    // behind the ImageStore discipline shared with the strategy zoo.
    // The copy loop writes the in-flight image into the *inactive* slot
    // and flips the metadata only after the last byte, so a kill at any
    // byte leaves the committed slot untouched — exactly the
    // double-buffered commit the model's torn-checkpoint accounting
    // assumes. The legacy 16-byte "ac.meta" layout is preserved
    // byte-identically (tests/test_arena_sweep.cc reads it raw).
    const auto state_bytes = static_cast<std::size_t>(config.state_bytes);
    ImageStore store(config.persistence, "ac", state_bytes);
    has_image = store.warmStart(); // warm restart from the committed image
    const std::uint64_t attempt_base = store.bootSeq();
    double since_checkpoint = 0.0; // committed-but-unsaved instructions
    double off_tenth_ms = 0.0;     // dark time since last brown-out
    const double start_threshold =
        config.restart_overhead_instr * instr_energy +
        checkpoint_energy * 1.5;

    obs::FlightRecorder *flight =
        config.obs ? config.obs->flight : nullptr;
    std::size_t cur_sample = 0;

    // Flight-recorder view of a brown-out: what the software checkpoint
    // had persisted when the lights went out. Must run before the
    // caller resets copy_progress.
    const auto recordOutage = [&](bool torn_copy) {
        if (!flight)
            return;
        if (obs::OutageRecord *rec = flight->appendOutage()) {
            rec->fail_sample = cur_sample;
            rec->stored_nj = cap.energyNj();
            rec->lanes = 1;
            rec->torn = torn_copy;
            rec->bits_written =
                torn_copy ? static_cast<std::uint32_t>(copy_progress) * 8
                : has_image
                    ? static_cast<std::uint32_t>(config.state_bytes) * 8
                    : 0;
        }
    };

    // A torn copy loses the in-flight image; the double-buffered commit
    // keeps the previous checkpoint intact, so only the work since it is
    // re-executed.
    const auto tear = [&] {
        recordOutage(/*torn_copy=*/true);
        ++result.torn_checkpoints;
        copy_progress = -1;
        result.instructions_lost +=
            static_cast<std::uint64_t>(since_checkpoint);
        since_checkpoint = 0.0;
        on = false;
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        cur_sample = i;
        cap.step(trace.at(i), 0.1);

        if (!on) {
            if (cap.energyNj() >= start_threshold) {
                on = true;
                // Reboot + restore-from-checkpoint software path. Low
                // bits of the image may have expired while dark
                // (checkpoint_policy-shaped FeRAM retention).
                std::uint64_t expiries = 0;
                if (has_image) {
                    ++result.restores;
                    expiries = static_cast<std::uint64_t>(nvm::expiredCutoff(
                        config.checkpoint_policy, off_tenth_ms));
                    result.restore_bit_expirations += expiries;
                }
                if (flight) {
                    if (obs::OutageRecord *rec = flight->openOutage()) {
                        rec->resumed = true;
                        rec->outage_samples =
                            static_cast<std::uint64_t>(off_tenth_ms);
                        rec->resume = has_image
                                          ? obs::ResumeKind::plain_resume
                                          : obs::ResumeKind::cold_boot;
                        rec->resume_bits = 8;
                        rec->retention_decays = expiries;
                    }
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
                    recordOutage(/*torn_copy=*/false);
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
                ++checkpoint_attempts;
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
                // A deterministic byte pattern keyed by (attempt,
                // offset) stands in for the MCU's register/RAM state;
                // tests distinguish torn from committed images by it.
                // (No-op without a persistence backend.)
                {
                    const std::uint64_t attempt =
                        attempt_base + checkpoint_attempts;
                    store.writeByte(
                        static_cast<std::size_t>(copy_progress),
                        static_cast<std::uint8_t>(
                            (attempt * 31 +
                             static_cast<std::uint64_t>(copy_progress) *
                                 7) &
                            0xff));
                }
                if (++copy_progress >= config.state_bytes) {
                    copy_progress = -1;
                    has_image = true;
                    ++result.checkpoints;
                    // Commit: flip the active slot, then mark valid.
                    store.commit(attempt_base + checkpoint_attempts);
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

    if (config.obs) {
        obs::MetricsRegistry &m = config.obs->registry;
        const auto count = [&m](const char *name, std::uint64_t v) {
            m.counter(name).value += v;
        };
        count(obs::kAcAttempts, checkpoint_attempts);
        count(obs::kAcCommitted, result.checkpoints);
        count(obs::kAcTorn, result.torn_checkpoints);
        count(obs::kAcInFlightAtEnd, copy_progress >= 0 ? 1 : 0);
        count(obs::kAcRestores, result.restores);
        count(obs::kAcBitExpirations, result.restore_bit_expirations);
        count(obs::kAcInstrExecuted, result.instructions_executed);
        count(obs::kAcInstrLost, result.instructions_lost);
        count(obs::kAcForwardProgress, result.forward_progress);
        m.gauge(obs::kAcCheckpointEnergy).value +=
            result.checkpoint_energy_nj;
    }
    return result;
}

} // namespace inc::sim
