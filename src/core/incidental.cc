#include "core/incidental.h"

#include <algorithm>

#include "nvm/retention_policy.h"
#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::core
{

IncidentalController::IncidentalController(nvp::Core *core,
                                           ControllerConfig config,
                                           FrameLayout layout,
                                           approx::BitwidthController *bits,
                                           util::Rng rng)
    : core_(core), config_(config), layout_(layout), bits_(bits),
      rng_(rng)
{
    if (!core_ || !bits_)
        util::panic("IncidentalController requires a core and a "
                    "bitwidth controller");
    if (layout_.in_slots < 1 || layout_.out_slots < 1)
        util::fatal("FrameLayout slots must be >= 1");
    lane_min_bits_.fill(1);
}

std::uint32_t
IncidentalController::oldestLiveFrame(std::uint32_t newest_frame) const
{
    const auto slots = static_cast<std::uint32_t>(layout_.in_slots);
    return newest_frame + 1 >= slots ? newest_frame + 1 - slots : 0;
}

bool
IncidentalController::isStarted(std::uint32_t frame) const
{
    return started_.count(frame) > 0;
}

void
IncidentalController::slideWindow(std::uint32_t newest_frame)
{
    const std::uint32_t new_start = oldestLiveFrame(newest_frame);
    for (std::uint32_t f = window_start_; f < new_start; ++f) {
        if (!isStarted(f))
            ++stats_.frames_abandoned;
        started_.erase(f);
    }
    if (new_start > window_start_)
        window_start_ = new_start;
}

void
IncidentalController::onBackup()
{
    pending_.clear();
    // Oldest lanes first so the newest pushed entry is lane 0's state.
    for (int lane = nvp::kMaxLanes - 1; lane >= 0; --lane) {
        const nvp::LaneInfo &info = core_->lane(lane);
        if (!info.active)
            continue;
        ResumeEntry entry;
        entry.valid = true;
        entry.pc = core_->pc();
        entry.frame = info.frame;
        entry.regs = core_->regs().snapshot(lane);
        pending_.push_back(entry);
    }
    ++stats_.backups;
}

void
IncidentalController::decayRegisters(nvp::RegSnapshot &regs, int cutoff)
{
    if (cutoff <= 0)
        return;
    const std::uint16_t ac_mask = core_->regs().acMask();
    const auto bit_mask = static_cast<std::uint16_t>(
        util::lowMask(static_cast<unsigned>(cutoff)));
    for (int r = 1; r < isa::kNumRegs; ++r) {
        if (!((ac_mask >> r) & 1))
            continue;
        const auto noise = static_cast<std::uint16_t>(rng_.next());
        regs[static_cast<size_t>(r)] = static_cast<std::uint16_t>(
            (regs[static_cast<size_t>(r)] & ~bit_mask) |
            (noise & bit_mask));
    }
}

void
IncidentalController::onRestore(double outage_tenth_ms,
                                std::uint32_t newest_frame)
{
    ++stats_.restores;

    // Retention decay of AC memory regions across the outage.
    core_->memory().applyOutageDecay(outage_tenth_ms);

    // Retention decay of the backed-up approximable register bits.
    const int cutoff =
        nvm::expiredCutoff(config_.backup_policy, outage_tenth_ms);
    if (cutoff > 0) {
        ++stats_.reg_decay_events;
        for (ResumeEntry &e : pending_)
            decayRegisters(e.regs, cutoff);
    }

    slideWindow(newest_frame);
    buffer_.dropStale(oldestLiveFrame(newest_frame));
    recompute_.dropStale(oldestLiveFrame(newest_frame));

    if (!config_.roll_forward || pending_.empty() ||
        !core_->hasResumePoint()) {
        // Precise-NVP behaviour: resume exactly where execution stopped.
        pending_.clear();
        ++stats_.plain_resumes;
        return;
    }

    const ResumeEntry &newest = pending_.back();
    if (newest_frame <
        newest.frame + std::max<std::uint32_t>(
                           1, config_.roll_forward_min_frames)) {
        // The interrupted frame is still fresh enough: resuming it is
        // both precise and timely.
        pending_.clear();
        ++stats_.plain_resumes;
        return;
    }

    // Roll forward: abandon all in-flight lanes into the resume buffer
    // and restart lane 0 at the resume point; the markrp handler will
    // advance the frame register to the newest capture. When mid-loop
    // adoption is disabled (kernels with loop-carried memory scratch),
    // abandoned frames are instead un-marked as started so that history
    // spawning can restart them from the frame top.
    const nvp::RegSnapshot restored = pending_.back().regs;
    const std::uint32_t oldest_live = oldestLiveFrame(newest_frame);
    for (const ResumeEntry &e : pending_) {
        if (e.frame < oldest_live) {
            // Input slot already recycled: the computation is lost.
            ++stats_.dropped_stale;
            started_.erase(e.frame);
        } else if (config_.simd_adoption) {
            buffer_.push(e);
        } else {
            started_.erase(e.frame);
        }
    }
    pending_.clear();
    core_->deactivateAllLanes();
    core_->regs().load(0, restored);
    core_->setPc(core_->resumePc());
    // The interrupted frame was abandoned, not completed: its eventual
    // completion (if any) comes from SIMD adoption or a history respawn.
    main_frame_valid_ = false;
    ++stats_.roll_forwards;
}

void
IncidentalController::maybeAdopt(double energy_frac,
                                 std::uint32_t newest_frame)
{
    // Adoption itself is not energy-gated: a match point passes exactly
    // once per frame scan, and the lane's precision floor (minbits) is
    // what bounds its energy draw — the bitwidth controller apportions
    // any surplus (paper Sec. 3.1).
    if (!config_.simd_adoption || buffer_.empty())
        return;

    const std::uint16_t pc = core_->pc();
    const std::uint16_t mask = core_->matchMask();
    for (int i = 0; i < ResumeBuffer::capacity(); ++i) {
        ResumeEntry &entry = buffer_.at(i);
        if (!entry.valid || entry.pc != pc)
            continue;
        if (entry.frame < oldestLiveFrame(newest_frame)) {
            buffer_.invalidate(i);
            ++stats_.dropped_stale;
            continue;
        }
        const std::uint16_t match =
            core_->regs().compareSnapshot(0, entry.regs);
        if ((match & mask) != mask)
            continue;

        // Copy out before any buffer mutation: pushing the displaced
        // lane below may reuse this entry's slot.
        const ResumeEntry adopted = entry;
        int lane = core_->freeLane();
        if (lane < 0) {
            // Finishing interrupted work outranks freshly started
            // history / filler lanes: evict one back into the buffer
            // (it re-adopts from this same point on a later pass).
            int victim = -1;
            for (int l = core_->maxLanes() - 1; l >= 1; --l) {
                const auto origin = lane_origin_[static_cast<size_t>(l)];
                if (core_->lane(l).active &&
                    (origin == LaneOrigin::history ||
                     origin == LaneOrigin::recompute)) {
                    victim = l;
                    break;
                }
            }
            if (victim < 0)
                return;
            ResumeEntry displaced;
            displaced.valid = true;
            displaced.pc = pc;
            displaced.frame = core_->lane(victim).frame;
            displaced.regs = core_->regs().snapshot(victim);
            buffer_.invalidate(i);
            core_->deactivateLane(victim);
            buffer_.push(displaced);
            lane = victim;
        } else {
            buffer_.invalidate(i);
        }

        const int bits = config_.force_full_simd
                             ? 8
                             : bits_->incidentalBits(energy_frac);
        core_->activateLane(lane, adopted.regs, bits, adopted.frame);
        lane_min_bits_[static_cast<size_t>(lane)] = 1;
        lane_origin_[static_cast<size_t>(lane)] = LaneOrigin::adopted;
        ++stats_.adoptions;
        return; // one adoption per instruction
    }
}

void
IncidentalController::updateLaneBits(double energy_frac)
{
    core_->setMainBits(
        config_.force_full_simd
            ? 8
            : std::max(bits_->mainBits(energy_frac), main_min_bits_));
    for (int lane = 1; lane < nvp::kMaxLanes; ++lane) {
        if (!core_->lane(lane).active)
            continue;
        int bits = config_.force_full_simd
                       ? 8
                       : bits_->incidentalBits(energy_frac);
        bits = std::max(bits, lane_min_bits_[static_cast<size_t>(lane)]);
        core_->setLaneBits(lane, bits);
    }
}

void
IncidentalController::spawnLane(std::uint16_t frame, int bits,
                                int min_bits, bool first_start,
                                std::uint8_t origin)
{
    const int lane = core_->freeLane();
    if (lane < 0)
        util::panic("spawnLane without a free lane");
    nvp::RegSnapshot regs = core_->regs().snapshot(0);
    regs[static_cast<size_t>(core_->frameReg())] = frame;
    core_->activateLane(lane, regs, std::max(bits, min_bits), frame);
    lane_min_bits_[static_cast<size_t>(lane)] = min_bits;
    lane_origin_[static_cast<size_t>(lane)] =
        static_cast<LaneOrigin>(origin);
    if (first_start) {
        core_->memory().resetVersionedRange(layout_.outSlotAddr(frame),
                                            layout_.out_bytes);
        started_.insert(frame);
        ++stats_.frames_started;
    }
}

void
IncidentalController::spawnLanes(std::uint32_t newest_frame,
                                 double energy_frac)
{
    const bool surplus = energy_frac >= config_.spawn_energy_frac;
    if (!config_.force_full_simd && !surplus)
        return;

    // 1. Explicit recompute requests ("interesting" data).
    while (core_->freeLane() >= 0 && !recompute_.empty()) {
        const std::uint32_t oldest = oldestLiveFrame(newest_frame);
        recompute_.dropStale(oldest);
        if (recompute_.empty())
            break;
        const RecomputeRequest req = recompute_.takePass();
        const int dyn = config_.force_full_simd
                            ? 8
                            : bits_->incidentalBits(energy_frac);
        spawnLane(req.frame, dyn, req.min_bits, false,
                  static_cast<std::uint8_t>(LaneOrigin::recompute));
        ++stats_.recompute_spawns;
    }

    // 2. Unprocessed buffered history, newest first. Keep one lane slot
    // free per live resume-buffer entry: interrupted computations adopt
    // mid-pass and finishing them outranks starting fresh history.
    if (config_.history_spawn || config_.force_full_simd) {
        const std::uint32_t oldest = oldestLiveFrame(newest_frame);
        for (std::uint32_t f = newest_frame + 1; f-- > oldest;) {
            if (core_->freeLane() < 0)
                break;
            if (isStarted(f) || f == main_frame_)
                continue;
            // Skip entries still adoptable from the resume buffer.
            bool buffered = false;
            for (int i = 0; i < ResumeBuffer::capacity(); ++i) {
                if (buffer_.at(i).valid && buffer_.at(i).frame == f)
                    buffered = true;
            }
            if (buffered)
                continue;
            const int dyn = config_.force_full_simd
                                ? 8
                                : bits_->incidentalBits(energy_frac);
            spawnLane(static_cast<std::uint16_t>(f), dyn, 1, true,
                      static_cast<std::uint8_t>(LaneOrigin::history));
            ++stats_.history_spawns;
        }
    }

    // 3. Full-SIMD fill: keep all lanes busy at full precision.
    if (config_.force_full_simd) {
        while (core_->freeLane() >= 0) {
            spawnLane(static_cast<std::uint16_t>(main_frame_), 8, 8,
                      false,
                      static_cast<std::uint8_t>(LaneOrigin::history));
            ++stats_.recompute_spawns;
        }
    }
}

IncidentalController::MarkOutcome
IncidentalController::handleMarkResume(std::uint16_t frame_value,
                                       std::uint32_t newest_frame,
                                       double energy_frac)
{
    slideWindow(newest_frame);

    // Retire incidental lanes: their frames are complete. (This runs
    // before any wait decision so completions are never deferred by a
    // starved sensor; re-executions of the markrp while waiting find
    // main_frame_valid_ already cleared and no active lanes.)
    for (int lane = 1; lane < nvp::kMaxLanes; ++lane) {
        const nvp::LaneInfo &info = core_->lane(lane);
        if (!info.active)
            continue;
        emitCompletion({info.frame, lane, info.bits});
        ++stats_.frames_completed;
        ++stats_.retirements;
        if (config_.auto_recompute_times > 0 && info.bits < 8) {
            recompute_.request(info.frame, config_.recompute_min_bits,
                               config_.auto_recompute_times);
        }
        core_->deactivateLane(lane);
    }

    // Lane 0 finished its previous frame. Approximate completions are
    // recompute candidates just like incidental-lane ones.
    if (main_frame_valid_) {
        emitCompletion({main_frame_, 0, core_->mainBits()});
        ++stats_.frames_completed;
        if (config_.auto_recompute_times > 0 && core_->mainBits() < 8 &&
            main_min_bits_ <= 1) { // not itself a recompute pass
            recompute_.request(static_cast<std::uint16_t>(main_frame_),
                               config_.recompute_min_bits,
                               config_.auto_recompute_times);
        }
        main_frame_valid_ = false;
    }

    // Select the next frame: newest-first when configured. If it has not
    // been captured yet, either spend the idle time on a queued
    // recompute pass (Sec. 8.5: recomputation must not affect the
    // current data processing loop — here it fills sensor-wait slack),
    // or report a wait; the simulator re-executes the markrp once the
    // frame arrives.
    std::uint32_t frame = frame_value;
    if (config_.process_newest_first && newest_frame > frame)
        frame = newest_frame;
    bool recompute_pass = false;
    int recompute_floor = 1;
    if (frame > newest_frame) {
        recompute_.dropStale(oldestLiveFrame(newest_frame));
        if (recompute_.empty() ||
            energy_frac < config_.spawn_energy_frac)
            return {frame, true};
        const RecomputeRequest req = recompute_.takePass();
        frame = req.frame;
        recompute_floor = req.min_bits;
        recompute_pass = true;
        ++stats_.recompute_spawns;
    }

    MarkOutcome outcome;
    outcome.frame = frame;
    outcome.wait_for_frame = false;

    main_min_bits_ = recompute_pass ? recompute_floor : 1;
    core_->regs().write(0, core_->frameReg(),
                        static_cast<std::uint16_t>(frame));
    core_->setMainFrame(static_cast<std::uint16_t>(frame));
    main_frame_ = frame;
    main_frame_valid_ = true;

    if (!isStarted(frame)) {
        core_->memory().resetVersionedRange(layout_.outSlotAddr(frame),
                                            layout_.out_bytes);
        started_.insert(frame);
        ++stats_.frames_started;
    }

    spawnLanes(newest_frame, energy_frac);
    return outcome;
}

void
IncidentalController::requestRecompute(std::uint16_t frame, int min_bits,
                                       int times)
{
    recompute_.request(frame, min_bits, times);
}

void
IncidentalController::emitCompletion(const FrameCompletion &completion)
{
    if (completion_callback_)
        completion_callback_(completion);
}

} // namespace inc::core
