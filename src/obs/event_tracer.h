/**
 * @file
 * Ring-buffered event tracer with Chrome-trace (Perfetto) JSON export.
 *
 * Producers record fixed-size Event records into a bounded ring; when
 * the ring is full the oldest events are overwritten and a dropped
 * counter keeps the loss visible. Export renders the surviving events
 * as a `{"traceEvents":[...]}` document that chrome://tracing and
 * https://ui.perfetto.dev load directly:
 *
 *  - spans      -> phase "X" (complete events with ts + dur)
 *  - instants   -> phase "i" (scope "t")
 *  - counters   -> phase "C" (one numeric series per name)
 *
 * Timestamps are microseconds. The system simulator runs at 0.1 ms per
 * power-trace sample, so `ts_us = sample_index * 100` puts the trace on
 * the real experiment timeline. pid is always 0; tid encodes the
 * source track (see Track).
 */

#ifndef INC_OBS_EVENT_TRACER_H
#define INC_OBS_EVENT_TRACER_H

#include <cstdint>
#include <string>
#include <vector>

namespace inc::obs
{

/** Trace rows, rendered as Chrome-trace thread ids. */
enum class Track : std::uint32_t
{
    power = 0,     ///< on/off phases of the capacitor
    checkpoint = 1,///< backups, restores, active-checkpoint copies
    frames = 2,    ///< frame lifetimes (capture -> score)
    rac = 3,       ///< recompute-and-combine merges / assembles
    counters = 4,  ///< numeric series (energy, bits)
};

class EventTracer
{
  public:
    /** @p capacity bounds the ring (default ~64Ki events). */
    explicit EventTracer(std::size_t capacity = 1 << 16);

    /** Span with explicit duration, both in microseconds. */
    void span(Track track, const char *name, double ts_us,
              double dur_us);
    /** Zero-duration marker. */
    void instant(Track track, const char *name, double ts_us);
    /** Sample of a numeric series (phase "C"). */
    void counter(const char *name, double ts_us, double value);

    std::size_t size() const { return events_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Chrome-trace JSON document (oldest surviving event first). */
    std::string toChromeTraceJson() const;

  private:
    enum class Phase : char
    {
        complete = 'X',
        instant = 'i',
        counter = 'C',
    };

    struct Event
    {
        Phase phase;
        Track track;
        const char *name; ///< producers pass string literals
        double ts_us;
        double dur_us;  ///< complete events
        double value;   ///< counter events
    };

    void record(const Event &e);

    std::size_t capacity_;
    std::size_t next_ = 0; ///< ring write cursor once full
    bool wrapped_ = false;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
};

} // namespace inc::obs

#endif // INC_OBS_EVENT_TRACER_H
