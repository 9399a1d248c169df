#include "sim/system_sim.h"

#include <algorithm>

#include "obs/observer.h"
#include "obs/report/flight_recorder.h"
#include "obs/schema.h"
#include "sim/functional.h"
#include "util/logging.h"

namespace inc::sim
{

namespace
{
/** Cycles per 0.1 ms trace sample at the 1 MHz core clock. */
constexpr int kCyclesPerSample = 100;
} // namespace

SystemSimulator::SystemSimulator(kernels::Kernel kernel,
                                 const trace::PowerTrace *trace,
                                 SimConfig config)
    : kernel_(std::move(kernel)), trace_(trace), config_(config),
      rng_(config.seed),
      scene_(kernel_.width, kernel_.height, kernel_.scene, config.seed),
      energy_model_(config.energy), capacitor_(config.capacitor),
      bit_ctrl_(config.bits)
{
    if (!trace_ || trace_->empty())
        util::fatal("SystemSimulator requires a non-empty power trace");

    // Kernels with loop-carried memory scratch cannot be adopted
    // mid-loop (see Kernel::adoption_safe).
    if (!kernel_.adoption_safe)
        config_.controller.simd_adoption = false;

    mem_ = std::make_unique<nvp::DataMemory>(rng_.split());
    for (const auto &[addr, data] : kernel_.init_blocks)
        mem_->hostWriteBlock(addr, data);
    mem_->addAcRegion({kernel_.layout.in_base,
                       kernel_.layout.in_bytes *
                           static_cast<std::uint32_t>(
                               kernel_.layout.in_slots),
                       config_.controller.backup_policy});
    mem_->addVersionedRegion(kernel_.layout.out_base,
                             kernel_.layout.out_bytes *
                                 static_cast<std::uint32_t>(
                                     kernel_.layout.out_slots));
    if (kernel_.scratch_bytes > 0) {
        mem_->addVersionedRegion(kernel_.scratch_base,
                                 kernel_.scratch_bytes,
                                 /*write_through=*/false);
    }

    core_ = std::make_unique<nvp::Core>(&kernel_.program, mem_.get(),
                                        config_.core, rng_.split());
    controller_ = std::make_unique<core::IncidentalController>(
        core_.get(), config_.controller, kernel_.layout, &bit_ctrl_,
        rng_.split());
    if (config_.score_quality) {
        controller_->setCompletionCallback(
            [this](const core::FrameCompletion &c) { scoreFrame(c); });
    }

    // Backup strategy (DESIGN.md §14): an observation-only overlay built
    // after the memory image and regions are initialized, so a freezer
    // strategy's dirty tracking starts from a clean interval. The
    // modeled per-byte cost is the software copy loop's ld8+st8 pair.
    strategy_ = makeStrategy(
        config_.strategy,
        energy_model_.instructionEnergyNj(isa::Op::ld8, 8) +
            energy_model_.instructionEnergyNj(isa::Op::st8, 8),
        mem_.get());

    obs_ = config_.obs;
    if (obs_) {
        obs_initial_nj_ = capacitor_.energyNj();
        core_->setObsCounters(&obs_->core);
        mem_->setObsCounters(&obs_->mem);
        controller_->recomputeQueue().setObsCounters(&obs_->queue);
    }

    // ---- thresholds -------------------------------------------------------
    const bool multi_lane = config_.controller.simd_adoption ||
                            config_.controller.history_spawn ||
                            config_.controller.force_full_simd ||
                            config_.controller.auto_recompute_times > 0;
    reserve_versions_ = multi_lane ? config_.core.max_lanes : 1;
    const double backup_nj = energy_model_.backupEnergyNj(
        config_.controller.backup_policy, reserve_versions_);
    backup_threshold_nj_ = backup_nj * config_.backup_guard;

    int min_bits = 8;
    switch (config_.bits.mode) {
      case approx::ApproxMode::precise: min_bits = 8; break;
      case approx::ApproxMode::fixed: min_bits = config_.bits.fixed_bits;
          break;
      case approx::ApproxMode::dynamic: min_bits = config_.bits.min_bits;
          break;
    }
    const int lane_bits_sum = (reserve_versions_ - 1) * min_bits;
    const double quantum_nj =
        config_.start_quantum_instr *
        energy_model_.instructionEnergyNj(isa::Op::add, min_bits,
                                          lane_bits_sum);
    start_threshold_nj_ = backup_threshold_nj_ +
                          energy_model_.restoreEnergyNj(
                              reserve_versions_) +
                          quantum_nj;

    // ---- sensor -----------------------------------------------------------
    frame_period_ = config_.frame_period_tenth_ms;
    if (frame_period_ <= 0.0) {
        // cycles at 1 MHz -> 0.1 ms units: 100 cycles per unit.
        frame_period_ = std::max(
            10.0, config_.frame_period_factor *
                      frameCycles(kernel_, config_.seed) /
                      kCyclesPerSample);
    }

    // ---- quantum stepping -------------------------------------------------
    // Worst-case bound for one sample: at most kCyclesPerSample steps
    // (every step costs >= 1 cycle), each draining at most the maximum
    // per-instruction energy over every opcode x precision x lane-width
    // x store-policy combination, plus at most a full budget of idle
    // cycles on the wait-for-frame path. The reserve the comparison is
    // checked against is itself bounded by the max-lane backup reserve.
    // Above reserve_max + drain_max, no reserve check in the sample can
    // fire, so skipping it is observationally invisible (assem excepted;
    // it re-derives the bound after its unbounded drain).
    const double max_step_nj =
        energy_model_.maxInstructionEnergyNj(config_.core.max_lanes);
    double reserve_max_nj = 0.0;
    for (int lanes = 1; lanes <= config_.core.max_lanes; ++lanes) {
        reserve_max_nj = std::max(
            reserve_max_nj,
            config_.backup_guard *
                energy_model_.backupEnergyNj(
                    config_.controller.backup_policy, lanes));
    }
    quantum_safe_level_nj_ =
        reserve_max_nj +
        kCyclesPerSample *
            (max_step_nj + energy_model_.idleCycleEnergyNj());
}

void
SystemSimulator::captureFramesUpTo(std::size_t sample)
{
    // The sensor captures a frame every frame_period_. The DMA engine
    // interlocks with the controller: it will not overwrite an input
    // slot a live lane is still reading from (it drops the capture and
    // retries next period), so in-flight computations never see their
    // input change underneath them.
    while (static_cast<double>(captures_attempted_) * frame_period_ <=
           static_cast<double>(sample)) {
        ++captures_attempted_;
        const auto f = static_cast<std::uint32_t>(newest_frame_ + 1);
        const auto slot = f % static_cast<std::uint32_t>(
                                  kernel_.layout.in_slots);
        bool slot_busy = false;
        for (int lane = 0; lane < nvp::kMaxLanes; ++lane) {
            const nvp::LaneInfo &info = core_->lane(lane);
            // Lane 0's frame field is meaningful only once the program
            // has reached its first resume point.
            if (lane == 0 && !lane0_frame_valid_)
                continue;
            if (info.active &&
                info.frame % static_cast<std::uint32_t>(
                                 kernel_.layout.in_slots) ==
                    slot) {
                slot_busy = true;
                break;
            }
        }
        if (slot_busy) {
            ++result_.frames_dropped_by_dma;
            continue;
        }
        ++newest_frame_;
        mem_->hostWriteBlock(
            kernel_.layout.inSlotAddr(f),
            kernel_.make_input(scene_, static_cast<int>(f)));
        capture_time_[f] = sample;
        if (capture_time_.size() > 64)
            capture_time_.erase(capture_time_.begin());
        ++result_.frames_captured;
    }
}

void
SystemSimulator::scoreFrame(const core::FrameCompletion &completion)
{
    const std::uint32_t f = completion.frame;
    auto golden_it = golden_cache_.find(f);
    if (golden_it == golden_cache_.end()) {
        golden_it = golden_cache_
                        .emplace(f, kernel_.golden(kernel_.make_input(
                                        scene_, static_cast<int>(f))))
                        .first;
    }
    const std::uint32_t addr = kernel_.layout.outSlotAddr(f);
    const auto out = mem_->snapshot(addr, kernel_.layout.out_bytes);

    // Quality is scored over the pixels actually produced; completeness
    // is reported separately as coverage (partial outputs are the point
    // of incidental computing — "at least some low quality results").
    const auto mask =
        mem_->precisionMask(addr, kernel_.layout.out_bytes);
    FrameScore &score = scores_[f];
    score.frame = f;
    score.mse = approx::maskedMse(out, golden_it->second, mask);
    score.psnr = approx::psnrFromMse(score.mse);
    score.coverage = mem_->coverage(addr, kernel_.layout.out_bytes);
    ++score.completions;
    if (score.completions == 1) {
        const auto it = capture_time_.find(f);
        if (it != capture_time_.end()) {
            score.first_completion_age =
                static_cast<double>(current_sample_ - it->second);
            if (obs_ && obs_->flight) {
                if (obs::FrameRecord *rec = obs_->flight->appendFrame()) {
                    rec->frame = f;
                    rec->capture_sample = it->second;
                    rec->age_samples = score.first_completion_age;
                    rec->mse = score.mse;
                    rec->psnr = score.psnr;
                    rec->coverage = score.coverage;
                    rec->bits = completion.bits;
                }
            }
            if (obs_ && obs_->tracer) {
                // Frame lifetime: capture to first completion.
                obs_->tracer->span(
                    obs::Track::frames, "frame",
                    100.0 * static_cast<double>(it->second),
                    100.0 * score.first_completion_age);
            }
        }
    }
    score.out_byte_sum = 0.0;
    score.golden_byte_sum = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
        if (!mask[i])
            continue;
        score.out_byte_sum += out[i];
        score.golden_byte_sum += golden_it->second[i];
    }

    // Keep the golden cache bounded.
    if (golden_cache_.size() > 16)
        golden_cache_.erase(golden_cache_.begin());
}

void
SystemSimulator::performBackup(std::size_t sample)
{
    // Failure-time snapshot for the flight recorder, taken before the
    // backup drains the capacitor or the controller reshapes lanes.
    const double stored_at_failure_nj = capacitor_.energyNj();
    controller_->onBackup();
    const int lanes = core_->activeLaneCount();
    const double cost = energy_model_.backupEnergyNj(
        config_.controller.backup_policy, lanes);
    const double drained = capacitor_.drain(cost);
    result_.backup_energy_nj += cost;
    ++result_.backups;
    strategy_->onBackup(sample);
    if (obs_) {
        obs_unfunded_nj_ += cost - drained;
        obs_->registry
            .histogram(obs::kHistBackupLanes, {1.0, 2.0, 3.0})
            .record(static_cast<double>(lanes));
        obs_->registry
            .histogram(obs::kHistOnPeriodSamples,
                       {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                        500.0, 1000.0})
            .record(static_cast<double>(sample - obs_phase_start_));
        if (obs_->flight) {
            if (obs::OutageRecord *rec = obs_->flight->appendOutage()) {
                rec->fail_sample = sample;
                rec->pc = core_->pc();
                rec->frame = core_->lane(0).frame;
                rec->stored_nj = stored_at_failure_nj;
                rec->lanes = static_cast<std::uint32_t>(lanes);
                // The passive in-situ backup writes every live lane's
                // register/memory state at its current precision.
                rec->bits_written = static_cast<std::uint32_t>(
                    core_->acEnabled()
                        ? core_->mainBits() + core_->incidentalBitsSum()
                        : 8 * lanes);
            }
        }
        if (obs_->tracer) {
            obs_->tracer->instant(obs::Track::checkpoint, "backup",
                                  100.0 * static_cast<double>(sample));
        }
    }
    tracePowerPhase(sample, /*next_on=*/false);
    on_ = false;
    off_since_ = sample;

    // Arm the next wake-up comparator for the state just saved: restore
    // cost, a backup reserve for the resumed lane count, and a minimum
    // work quantum.
    int min_bits = 8;
    switch (config_.bits.mode) {
      case approx::ApproxMode::precise: min_bits = 8; break;
      case approx::ApproxMode::fixed: min_bits = config_.bits.fixed_bits;
          break;
      case approx::ApproxMode::dynamic: min_bits = config_.bits.min_bits;
          break;
    }
    next_start_threshold_nj_ =
        energy_model_.restoreEnergyNj(lanes) +
        config_.backup_guard * cost +
        config_.start_quantum_instr *
            energy_model_.instructionEnergyNj(isa::Op::add, min_bits,
                                              (lanes - 1) * min_bits);
}

void
SystemSimulator::performRestore(std::size_t sample)
{
    const double cost =
        energy_model_.restoreEnergyNj(reserve_versions_);
    const double drained = capacitor_.drain(cost);
    result_.restore_energy_nj += cost;
    ++result_.restores;
    strategy_->onRestore(sample);
    const double outage =
        static_cast<double>(sample - off_since_); // 0.1 ms units
    if (obs_) {
        obs_unfunded_nj_ += cost - drained;
        obs_->registry
            .histogram(obs::kHistOutageSamples,
                       {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                        500.0, 1000.0})
            .record(outage);
        if (obs_->tracer) {
            obs_->tracer->instant(obs::Track::checkpoint, "restore",
                                  100.0 * static_cast<double>(sample));
        }
    }
    tracePowerPhase(sample, /*next_on=*/true);
    obs::OutageRecord *rec =
        obs_ && obs_->flight ? obs_->flight->openOutage() : nullptr;
    const core::ControllerStats stats_before =
        rec ? controller_->stats() : core::ControllerStats{};
    controller_->onRestore(
        outage, static_cast<std::uint32_t>(std::max<std::int64_t>(
                    0, newest_frame_)));
    on_ = true;
    if (rec) {
        // The restore decision and the retention outcome are visible
        // as controller-stat deltas across onRestore().
        const core::ControllerStats &after = controller_->stats();
        rec->resumed = true;
        rec->outage_samples = sample - off_since_;
        rec->resume = after.roll_forwards > stats_before.roll_forwards
                          ? obs::ResumeKind::roll_forward
                          : obs::ResumeKind::plain_resume;
        rec->resume_bits = static_cast<std::uint32_t>(
            core_->acEnabled() ? core_->mainBits() : 8);
        rec->retention_decays =
            after.reg_decay_events - stats_before.reg_decay_events;
    }
}

SimResult
SystemSimulator::run()
{
    while (stepSample()) {
    }
    return finalize();
}

bool
SystemSimulator::stepSample()
{
    const std::size_t samples = trace_->size();
    if (finalized_)
        util::panic("SystemSimulator: stepSample after finalize");
    if (sample_cursor_ >= samples || core_->halted())
        return false;

    {
        const std::size_t i = sample_cursor_++;
        current_sample_ = i;
        ++obs_samples_;
        captureFramesUpTo(i);
        capacitor_.step(config_.income_scale * trace_->at(i), 0.1);
        if (obs_ && obs_->tracer) {
            obs_->tracer->counter(obs::kTraceCapSeries,
                                  100.0 * static_cast<double>(i),
                                  capacitor_.energyNj());
        }

        if (!on_) {
            const double wake = next_start_threshold_nj_ > 0.0
                                    ? next_start_threshold_nj_
                                    : start_threshold_nj_;
            if (capacitor_.energyNj() >= wake && newest_frame_ >= 0) {
                if (first_start_) {
                    // Cold boot: no restore cost, start at the program
                    // entry.
                    first_start_ = false;
                    ++obs_cold_boots_;
                    tracePowerPhase(i, /*next_on=*/true);
                    on_ = true;
                    ++result_.restores;
                    strategy_->onColdBoot(i);
                    if (obs_ && obs_->flight) {
                        // No checkpoint image exists yet; log the boot
                        // as a completed outage covering the dark lead-in
                        // so the report's power-cycle count closes
                        // against sim.cold_boots.
                        if (obs::OutageRecord *rec =
                                obs_->flight->appendOutage()) {
                            rec->fail_sample = i;
                            rec->pc = core_->pc();
                            rec->stored_nj = capacitor_.energyNj();
                            rec->resumed = true;
                            rec->outage_samples = i;
                            rec->resume = obs::ResumeKind::cold_boot;
                            rec->resume_bits = static_cast<std::uint32_t>(
                                core_->acEnabled() ? core_->mainBits()
                                                   : 8);
                        }
                    }
                } else {
                    performRestore(i);
                }
            }
            if (!on_) {
                bit_ctrl_.recordTick(0);
                return sample_cursor_ < samples;
            }
        }

        ++on_samples_;
        controller_->updateLaneBits(capacitor_.fraction());
        bit_ctrl_.recordTick(core_->acEnabled() ? core_->mainBits() : 8);
        strategy_->onSample(i, capacitor_.fraction());

        // Quantum stepping (predecoded engine only): when the stored
        // energy provably cannot reach the backup reserve within this
        // sample's cycle budget, the per-step reserve comparison is
        // dead code and is skipped for the whole quantum. The proof is
        // engine-independent; only the reference baseline keeps the
        // naive per-step comparison as the semantic anchor.
        const bool quantum_ok =
            config_.core.engine != nvp::ExecEngine::reference;
        bool skip_reserve =
            quantum_ok && capacitor_.energyNj() > quantum_safe_level_nj_;

        int budget = kCyclesPerSample;
        while (budget > 0 && on_) {
            if (waiting_for_frame_) {
                if (newest_frame_ >= 0 &&
                    static_cast<std::uint32_t>(newest_frame_) >=
                        wanted_frame_) {
                    waiting_for_frame_ = false;
                    core_->setPc(core_->resumePc());
                } else {
                    // Idle (clock-gated) until the next capture; a long
                    // enough wait still drains to the backup reserve.
                    const double idle = std::min(
                        energy_model_.idleCycleEnergyNj() * budget,
                        capacitor_.energyNj());
                    capacitor_.drain(idle);
                    result_.consumed_energy_nj += idle;
                    if (obs_)
                        obs_idle_nj_ += idle;
                    budget = 0;
                    if (!skip_reserve) {
                        const double reserve =
                            config_.backup_guard *
                            energy_model_.backupEnergyNj(
                                config_.controller.backup_policy,
                                core_->activeLaneCount());
                        if (capacitor_.energyNj() <= reserve)
                            performBackup(i);
                    }
                    break;
                }
            }

            controller_->maybeAdopt(capacitor_.fraction(),
                                    static_cast<std::uint32_t>(
                                        std::max<std::int64_t>(
                                            0, newest_frame_)));

            const nvp::StepResult step = core_->step();
            const int main_bits =
                core_->acEnabled() ? core_->mainBits() : 8;
            const double instr_cost = energy_model_.instructionEnergyNj(
                step.op, main_bits, core_->incidentalBitsSum(),
                step.store_policy);
            double cost = instr_cost;
            if (step.assemble_bytes > 0) {
                const double assemble_cost =
                    energy_model_.assembleEnergyNj(
                        static_cast<int>(step.assemble_bytes));
                cost += assemble_cost;
#if INC_OBS_ENABLED
                if (obs_) {
                    obs_assemble_nj_ += assemble_cost;
                    if (obs_->tracer) {
                        obs_->tracer->instant(
                            obs::Track::rac, "assemble",
                            100.0 * static_cast<double>(i));
                    }
                }
#endif
            }
#if INC_OBS_ENABLED
            // Ledger split + unfunded-demand tracking. Compiled out
            // (leaving the plain drain below) with INCIDENTAL_OBS=OFF,
            // so the hot loop carries no extra branches then.
            if (obs_) {
                const double fetch =
                    energy_model_.instructionBaseEnergyNj(step.op);
                obs_fetch_nj_ += fetch;
                obs_datapath_nj_ += instr_cost - fetch;
                if (step.lanes_committed > 1) {
                    obs_adopted_cycles_ +=
                        static_cast<std::uint64_t>(step.cycles);
                }
                obs_unfunded_nj_ += cost - capacitor_.drain(cost);
            } else {
                capacitor_.drain(cost);
            }
#else
            capacitor_.drain(cost);
#endif
            result_.consumed_energy_nj += cost;
            result_.forward_progress +=
                static_cast<std::uint64_t>(step.lanes_committed);
            ++result_.main_instructions;
            result_.cycles_executed +=
                static_cast<std::uint64_t>(step.cycles);
            budget -= step.cycles;

            if (step.mark_resume) {
                lane0_frame_valid_ = true;
                const auto outcome = controller_->handleMarkResume(
                    step.resume_frame_value,
                    static_cast<std::uint32_t>(
                        std::max<std::int64_t>(0, newest_frame_)),
                    capacitor_.fraction());
                if (outcome.wait_for_frame) {
                    waiting_for_frame_ = true;
                    wanted_frame_ = outcome.frame;
                }
            }
            if (step.halted)
                break;

            // An assemble drains an input-dependent amount not covered
            // by the per-sample bound; re-derive the quantum guarantee.
            if (step.assemble_bytes > 0) {
                skip_reserve = quantum_ok && capacitor_.energyNj() >
                                                 quantum_safe_level_nj_;
            }
            if (skip_reserve)
                continue;

            // The backup reserve tracks the state that actually needs
            // saving: the controller knows its live lane count and sets
            // the comparator level accordingly.
            const double reserve =
                config_.backup_guard *
                energy_model_.backupEnergyNj(
                    config_.controller.backup_policy,
                    core_->activeLaneCount());
            if (capacitor_.energyNj() <= reserve) {
                performBackup(i);
                break;
            }
        }
    }
    return sample_cursor_ < samples && !core_->halted();
}

SimResult
SystemSimulator::finalize()
{
    const std::size_t samples = trace_->size();
    if (finalized_)
        util::panic("SystemSimulator: finalize called twice");
    finalized_ = true;
    const std::uint64_t on_samples = on_samples_;

    // Final flush: score everything still in flight.
    if (config_.score_quality) {
        for (int lane = 0; lane < nvp::kMaxLanes; ++lane) {
            const nvp::LaneInfo &info = core_->lane(lane);
            if (info.active && (lane > 0 || newest_frame_ >= 0))
                scoreFrame({info.frame, lane, info.bits});
        }
    }

    result_.on_time_fraction =
        static_cast<double>(on_samples) / static_cast<double>(samples);
    result_.controller = controller_->stats();
    result_.retention_failures = mem_->failures();
    result_.start_threshold_nj = start_threshold_nj_;
    result_.backup_threshold_nj = backup_threshold_nj_;
    result_.income_energy_nj = capacitor_.totalIncomeNj();
    result_.frame_period_tenth_ms = frame_period_;
    for (int b = 0; b <= 8; ++b)
        result_.bit_ticks[static_cast<size_t>(b)] = bit_ctrl_.ticksAt(b);

    int aged = 0;
    for (const auto &[frame, score] : scores_) {
        result_.mean_mse += score.mse;
        result_.mean_psnr += score.psnr;
        result_.mean_coverage += score.coverage;
        if (score.first_completion_age > 0.0) {
            result_.mean_completion_age += score.first_completion_age;
            ++aged;
        }
        result_.frame_scores.push_back(score);
    }
    result_.frames_scored = static_cast<int>(scores_.size());
    if (result_.frames_scored > 0) {
        result_.mean_mse /= result_.frames_scored;
        result_.mean_psnr /= result_.frames_scored;
        result_.mean_coverage /= result_.frames_scored;
    }
    if (aged > 0)
        result_.mean_completion_age /= aged;

    if (obs_) {
        // Close the trailing power phase and fold everything into the
        // observer's registry.
        tracePowerPhase(static_cast<std::size_t>(obs_samples_), on_);
        publishMetrics(on_samples);
        // Flight-recorder overflow must survive into the registry so
        // offline reports can still flag a truncated log.
        if (obs_->flight)
            obs::publishFlightDrops(*obs_->flight, obs_->registry);
    }
    return result_;
}

void
SystemSimulator::tracePowerPhase(std::size_t now_sample, bool next_on)
{
    if (!obs_ || !obs_->tracer) {
        obs_phase_start_ = now_sample;
        return;
    }
    // Emit the span of the phase that just ended (state still in on_).
    if (now_sample > obs_phase_start_ || on_ != next_on) {
        obs_->tracer->span(
            obs::Track::power, on_ ? "power_on" : "power_off",
            100.0 * static_cast<double>(obs_phase_start_),
            100.0 * static_cast<double>(now_sample - obs_phase_start_));
    }
    obs_phase_start_ = now_sample;
}

void
SystemSimulator::publishMetrics(std::uint64_t on_samples)
{
    obs::MetricsRegistry &m = obs_->registry;
    const auto count = [&m](const char *name, std::uint64_t v) {
        m.counter(name).value += v;
    };
    const auto gauge = [&m](const char *name, double v) {
        m.gauge(name).value += v;
    };

    count(obs::kSimSamples, obs_samples_);
    count(obs::kSimOnSamples, on_samples);
    count(obs::kSimColdBoots, obs_cold_boots_);
    count(obs::kSimInstructions, result_.main_instructions);
    count(obs::kSimForwardProgress, result_.forward_progress);
    count(obs::kSimCycles, result_.cycles_executed);
    count(obs::kSimAdoptedLaneCycles, obs_adopted_cycles_);
    // The NVP's passive in-situ backup is atomic at this model's
    // granularity (contrast the active-checkpoint baseline's torn
    // copies); torn is published so the identity is uniform.
    count(obs::kSimBackupAttempts, result_.backups);
    count(obs::kSimBackupsCommitted, result_.backups);
    count(obs::kSimBackupsTorn, 0);
    count(obs::kSimRestores, result_.restores);
    count(obs::kSimFrameAttempts, captures_attempted_);
    count(obs::kSimFramesCaptured, result_.frames_captured);
    count(obs::kSimFramesDmaDropped, result_.frames_dropped_by_dma);
    count(obs::kSimFramesScored,
          static_cast<std::uint64_t>(result_.frames_scored));

    std::uint64_t violations = 0;
    std::uint64_t flips = 0;
    for (std::size_t b = 0; b < result_.retention_failures.flips.size();
         ++b) {
        violations += result_.retention_failures.violations[b];
        flips += result_.retention_failures.flips[b];
    }
    count(obs::kSimRetentionViolations, violations);
    count(obs::kSimRetentionFlips, flips);

    for (int b = 0; b <= 8; ++b) {
        count((std::string(obs::kBitTicksPrefix) + std::to_string(b))
                  .c_str(),
              result_.bit_ticks[static_cast<std::size_t>(b)]);
    }

    const core::ControllerStats &cs = result_.controller;
    count(obs::kCtrlBackups, cs.backups);
    count(obs::kCtrlRestores, cs.restores);
    count(obs::kCtrlRollForwards, cs.roll_forwards);
    count(obs::kCtrlPlainResumes, cs.plain_resumes);
    count(obs::kCtrlAdoptions, cs.adoptions);
    count(obs::kCtrlHistorySpawns, cs.history_spawns);
    count(obs::kCtrlRecomputeSpawns, cs.recompute_spawns);
    count(obs::kCtrlRetirements, cs.retirements);
    count(obs::kCtrlDroppedStale, cs.dropped_stale);
    count(obs::kCtrlFramesStarted, cs.frames_started);
    count(obs::kCtrlFramesCompleted, cs.frames_completed);
    count(obs::kCtrlFramesAbandoned, cs.frames_abandoned);
    count(obs::kCtrlRegDecayEvents, cs.reg_decay_events);

    gauge(obs::kEnergyInitial, obs_initial_nj_);
    gauge(obs::kEnergyIncome, result_.income_energy_nj);
    gauge(obs::kEnergyFetch, obs_fetch_nj_);
    gauge(obs::kEnergyDatapath, obs_datapath_nj_);
    gauge(obs::kEnergyIdle, obs_idle_nj_);
    gauge(obs::kEnergyAssemble, obs_assemble_nj_);
    gauge(obs::kEnergyConsumed, result_.consumed_energy_nj);
    gauge(obs::kEnergyBackup, result_.backup_energy_nj);
    gauge(obs::kEnergyRestore, result_.restore_energy_nj);
    gauge(obs::kEnergyLeak, capacitor_.totalLossNj());
    gauge(obs::kEnergyStoredFinal, capacitor_.energyNj());
    gauge(obs::kEnergyUnfunded, obs_unfunded_nj_);

#if INC_OBS_ENABLED
    // Hot-path counter structs (all zero — and misleading — when the
    // increments are compiled out, so only published when live).
    const obs::CoreCounters &cc = obs_->core;
    count(obs::kCoreSteps, cc.steps);
    count(obs::kCoreInstrAlu, cc.instr_alu);
    count(obs::kCoreInstrLoad, cc.instr_load);
    count(obs::kCoreInstrStore, cc.instr_store);
    count(obs::kCoreInstrBranch, cc.instr_branch);
    count(obs::kCoreBranchTaken, cc.branch_taken);
    count(obs::kCoreInstrJump, cc.instr_jump);
    count(obs::kCoreInstrIncidental, cc.instr_incidental);
    count(obs::kCoreInstrSystem, cc.instr_system);
    count(obs::kCoreAssembles, cc.assembles);
    count(obs::kCoreAssembleBytes, cc.assemble_bytes);
    count(obs::kCoreLaneCommits, cc.lane_commits);

    const obs::MemCounters &mc = obs_->mem;
    count(obs::kMemLoads, mc.loads);
    count(obs::kMemStores, mc.stores);
    count(obs::kMemAcTruncatedLoads, mc.ac_truncated_loads);
    count(obs::kMemAcTruncatedStores, mc.ac_truncated_stores);
    count(obs::kMemWtCommits, mc.wt_commits);
    count(obs::kMemWtRejects, mc.wt_rejects);
    count(obs::kMemAssembleBytes, mc.assemble_bytes);
    count(obs::kMemVersionResets, mc.version_resets);
    count(obs::kMemLaneClears, mc.lane_clears);
    count(obs::kMemDecayPasses, mc.decay_passes);

    const obs::QueueCounters &qc = obs_->queue;
    count(obs::kQueueRequests, qc.requests);
    count(obs::kQueuePasses, qc.passes);
    count(obs::kQueueDropped, qc.dropped);
#endif

    strategy_->publish(m);
}

} // namespace inc::sim
