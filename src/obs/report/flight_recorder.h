/**
 * @file
 * The outage flight recorder: a bounded, structured log of what
 * happened at every power failure and every frame completion.
 *
 * The metrics registry answers "how many" and "how much"; the flight
 * recorder answers "what happened at outage #17". The simulators
 * append one OutageRecord per power cycle (opened at backup, completed
 * at the matching restore) and one FrameRecord per first frame
 * completion. All hooks are cold-path (a backup, a restore, a frame
 * score) and guarded by a null check on Observer::flight, so the
 * per-instruction hot path never sees the recorder — the
 * check_obs_overhead.sh ≤3 % gate is unaffected.
 *
 * Bounding follows the EventTracer pattern: capacity is fixed at
 * construction, appends beyond it are counted in dropped counters
 * instead of growing without bound. The first N records are kept (not
 * a ring) so an open record can never be evicted before its restore
 * completes it; reports summarize the tail through the registry's
 * histograms, which see every event.
 *
 * Not thread-safe; one recorder per run, like the rest of Observer.
 */

#ifndef INC_OBS_REPORT_FLIGHT_RECORDER_H
#define INC_OBS_REPORT_FLIGHT_RECORDER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.h"

namespace inc::obs
{

class MetricsRegistry;

/** How execution came back after the power failure. */
enum class ResumeKind : std::uint8_t
{
    cold_boot,    ///< no checkpoint image existed; fresh start
    plain_resume, ///< restored the image and continued in place
    roll_forward, ///< restored, then adopted newer incidental state
};

const char *resumeKindName(ResumeKind kind);

struct OutageRecord;
struct FrameRecord;

/** Canonical JSON form of one record (as embedded in the run report). */
JsonValue outageToJson(const OutageRecord &record);
JsonValue frameToJson(const FrameRecord &record);

/** One power cycle: the failure-time snapshot taken at backup plus
 *  the outcome filled in at the matching restore. */
struct OutageRecord
{
    // ---- failure side (valid from append) ------------------------------
    std::uint64_t fail_sample = 0; ///< trace sample of the backup
    std::uint32_t pc = 0;          ///< interrupted main-lane PC
    std::uint32_t frame = 0;       ///< frame the main lane was serving
    double stored_nj = 0.0;        ///< capacitor energy entering backup
    std::uint32_t lanes = 0;       ///< lanes captured in the image
    std::uint32_t bits_written = 0; ///< checkpoint bits/byte written
    bool torn = false;             ///< copy interrupted mid-flight

    // ---- restore side (valid once `resumed`) ---------------------------
    bool resumed = false;
    std::uint64_t outage_samples = 0; ///< dark time, 0.1 ms units
    ResumeKind resume = ResumeKind::plain_resume;
    std::uint32_t resume_bits = 0; ///< adopted main-lane bitwidth
    /** Shaped-retention expiries applied while restoring (register
     *  decay events or expired NVM bit planes, per simulator). */
    std::uint64_t retention_decays = 0;
};

/** One frame lifetime, recorded at first completion. */
struct FrameRecord
{
    std::uint32_t frame = 0;
    std::uint64_t capture_sample = 0;
    double age_samples = 0.0; ///< capture -> first completion latency
    double mse = 0.0;
    double psnr = 0.0;
    double coverage = 0.0;
    int bits = 8; ///< lane precision at completion
};

class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t max_outages = 1024,
                            std::size_t max_frames = 1024);

    /** Append an empty outage record and return it for filling, or
     *  nullptr when at capacity (the drop is counted). */
    OutageRecord *appendOutage();

    /** The most recent record still awaiting its restore, or nullptr
     *  (none open, or the open one was dropped at append). */
    OutageRecord *openOutage();

    /** Append an empty frame record, or nullptr at capacity. */
    FrameRecord *appendFrame();

    const std::vector<OutageRecord> &outages() const
    {
        return outages_;
    }
    const std::vector<FrameRecord> &frames() const { return frames_; }
    std::uint64_t droppedOutages() const { return dropped_outages_; }
    std::uint64_t droppedFrames() const { return dropped_frames_; }

  private:
    std::size_t max_outages_;
    std::size_t max_frames_;
    std::vector<OutageRecord> outages_;
    std::vector<FrameRecord> frames_;
    std::uint64_t dropped_outages_ = 0;
    std::uint64_t dropped_frames_ = 0;
};

/**
 * Publish the recorder's drop counters into @p registry
 * (obs/schema.h: flight.dropped_outages / flight.dropped_frames), so
 * capacity overflow stays visible in metrics JSON and in reports
 * re-derived offline from it — the flight log itself never travels
 * through the registry. Counters are published even at zero: an
 * explicit zero distinguishes "nothing dropped" from "no recorder
 * attached".
 */
void publishFlightDrops(const FlightRecorder &flight,
                        MetricsRegistry &registry);

} // namespace inc::obs

#endif // INC_OBS_REPORT_FLIGHT_RECORDER_H
