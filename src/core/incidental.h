/**
 * @file
 * The incidental computing controller — the paper's primary contribution
 * (Secs. 3-4), implemented as the microarchitectural control unit sitting
 * next to the NVP core:
 *
 *  - Roll-forward recovery: after a power failure, instead of resuming
 *    the interrupted frame, execution restarts at the resume point
 *    (markrp) with the frame induction variable advanced to the newest
 *    captured frame. The interrupted computation's {PC, frame, register
 *    snapshot} is pushed into the 4-entry nonvolatile resume buffer.
 *
 *  - Incidental SIMD adoption: while processing the new frame, whenever
 *    the current PC equals a buffered entry's PC and the compiler-masked
 *    registers (loop induction variables) match, the old computation is
 *    adopted as an extra SIMD lane and continues from exactly where it
 *    stopped, at a power-dependent reduced bitwidth.
 *
 *  - History spawning: unprocessed buffered frames are picked up as
 *    incidental lanes at frame boundaries when surplus energy exists
 *    ("processing the historical buffered data with incidental
 *    computing", Sec. 2.1).
 *
 *  - Recompute-and-combine: frames flagged interesting are re-run at a
 *    guaranteed minimum precision and merged through the versioned
 *    memory's higher-bits arbitration (Sec. 8.5).
 *
 *  - Incidental backup: backup images of AC-marked state are written
 *    with a retention-shaping policy; at restore, bits whose shaped
 *    retention was outlived by the outage settle randomly (Sec. 3.2).
 */

#ifndef INC_CORE_INCIDENTAL_H
#define INC_CORE_INCIDENTAL_H

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "approx/bitwidth_controller.h"
#include "core/config.h"
#include "core/recompute.h"
#include "core/resume_buffer.h"
#include "nvp/core.h"
#include "util/rng.h"

namespace inc::core
{

/** A completed output frame (for quality scoring by the harness). */
struct FrameCompletion
{
    std::uint32_t frame = 0;
    int lane = 0;      ///< lane that finished it (0 = main)
    int bits = 8;      ///< lane precision at completion
};

/** Controller event counters. */
struct ControllerStats
{
    std::uint64_t backups = 0;
    std::uint64_t restores = 0;
    std::uint64_t roll_forwards = 0;
    std::uint64_t plain_resumes = 0;
    std::uint64_t adoptions = 0;
    std::uint64_t history_spawns = 0;
    std::uint64_t recompute_spawns = 0;
    std::uint64_t retirements = 0;
    std::uint64_t dropped_stale = 0;
    std::uint64_t frames_started = 0;
    std::uint64_t frames_completed = 0;
    std::uint64_t frames_abandoned = 0;
    std::uint64_t reg_decay_events = 0;
};

/** The incidental computing control unit. */
class IncidentalController
{
  public:
    IncidentalController(nvp::Core *core, ControllerConfig config,
                         FrameLayout layout,
                         approx::BitwidthController *bits,
                         util::Rng rng);

    const ControllerConfig &config() const { return config_; }
    const ControllerStats &stats() const { return stats_; }
    ResumeBuffer &resumeBuffer() { return buffer_; }
    RecomputeQueue &recomputeQueue() { return recompute_; }

    // ---- power events -----------------------------------------------------

    /** Power emergency: capture all active lanes as pending entries. */
    void onBackup();

    /**
     * Power recovery after an outage of @p outage_tenth_ms. Applies
     * retention decay (memory + backed-up registers), then either rolls
     * forward (newest frame available and roll_forward configured) or
     * resumes in place.
     */
    void onRestore(double outage_tenth_ms, std::uint32_t newest_frame);

    // ---- execution hooks ---------------------------------------------------

    /**
     * Per-instruction fast path: adopt a buffered computation whose PC
     * and masked registers match the current state.
     */
    void maybeAdopt(double energy_frac, std::uint32_t newest_frame);

    /** Per-sample tick: refresh all lane bitwidths from the energy state. */
    void updateLaneBits(double energy_frac);

    /** Outcome of a frame-boundary (markrp) event. */
    struct MarkOutcome
    {
        std::uint32_t frame = 0;    ///< frame lane 0 will process
        bool wait_for_frame = false; ///< frame not yet captured
    };

    /**
     * Handle a markrp executed by lane 0 with frame-register value
     * @p frame_value: retire finished lanes, pick the next frame
     * (newest-first), reset its output slot on first start, and spawn
     * surplus lanes (recompute queue, history backlog, full-SIMD fill).
     */
    MarkOutcome handleMarkResume(std::uint16_t frame_value,
                                 std::uint32_t newest_frame,
                                 double energy_frac);

    // ---- host API ----------------------------------------------------------

    /** Request @p times recompute passes of @p frame at >= @p min_bits. */
    void requestRecompute(std::uint16_t frame, int min_bits, int times);

    /**
     * Completion hook, the one delivery path for finished frames. It is
     * invoked the moment a frame finishes, before its output ring slot
     * can be recycled by a newer frame, so the handler may read the
     * finished output buffer.
     */
    void setCompletionCallback(
        std::function<void(const FrameCompletion &)> callback)
    {
        completion_callback_ = std::move(callback);
    }

  private:
    void spawnLanes(std::uint32_t newest_frame, double energy_frac);
    void spawnLane(std::uint16_t frame, int bits, int min_bits,
                   bool first_start, std::uint8_t origin);
    void decayRegisters(nvp::RegSnapshot &regs, int cutoff);
    void slideWindow(std::uint32_t newest_frame);
    bool isStarted(std::uint32_t frame) const;
    std::uint32_t oldestLiveFrame(std::uint32_t newest_frame) const;

    nvp::Core *core_;
    ControllerConfig config_;
    FrameLayout layout_;
    approx::BitwidthController *bits_;
    util::Rng rng_;

    ResumeBuffer buffer_;
    RecomputeQueue recompute_;
    ControllerStats stats_;

    void emitCompletion(const FrameCompletion &completion);

    std::vector<ResumeEntry> pending_; ///< captured at last backup
    std::function<void(const FrameCompletion &)> completion_callback_;
    std::set<std::uint32_t> started_;
    std::uint32_t window_start_ = 0;
    bool main_frame_valid_ = false;
    std::uint32_t main_frame_ = 0;
    int main_min_bits_ = 1; ///< floor while lane 0 runs a recompute pass
    std::array<int, nvp::kMaxLanes> lane_min_bits_{};

    /** How a lane came to be: adopted interrupted work is not evictable,
     *  history / full-SIMD filler lanes are. */
    enum class LaneOrigin : std::uint8_t
    {
        none,
        adopted,
        history,
        recompute
    };
    std::array<LaneOrigin, nvp::kMaxLanes> lane_origin_{};
};

} // namespace inc::core

#endif // INC_CORE_INCIDENTAL_H
