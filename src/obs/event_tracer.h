/**
 * @file
 * Ring-buffered event tracer with Chrome-trace (Perfetto) JSON export.
 *
 * Producers record Event records into a bounded ring; when the ring is
 * full the oldest events are overwritten and a dropped counter keeps
 * the loss visible. Export renders the surviving events as a
 * `{"traceEvents":[...]}` document that chrome://tracing and
 * https://ui.perfetto.dev load directly:
 *
 *  - process names -> phase "M" `process_name` records, first
 *  - spans         -> phase "X" (complete events with ts + dur)
 *  - instants      -> phase "i" (scope "t")
 *  - counters      -> phase "C" (one numeric series per name)
 *
 * Timestamps are microseconds. Two producers share this one writer:
 *
 *  - The system simulator runs at 0.1 ms per power-trace sample, so
 *    `ts_us = sample_index * 100` puts `nvpsim run --trace-out` on the
 *    real experiment timeline. Its events are pid 0 with the Track as
 *    tid.
 *  - The fleet coordinator (`nvpsim serve --trace-out`) stamps its own
 *    steady clock since campaign start, with each worker's real pid
 *    and a named process row per fleet process (DESIGN.md §16).
 */

#ifndef INC_OBS_EVENT_TRACER_H
#define INC_OBS_EVENT_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace inc::obs
{

/** The simulator's trace rows, rendered as Chrome-trace thread ids. */
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

    // Simulator events: pid 0, the Track as tid.

    /** Span with explicit duration, both in microseconds. */
    void span(Track track, std::string name, double ts_us,
              double dur_us)
    {
        span(0, trackTid(track), std::move(name), ts_us, dur_us);
    }
    /** Zero-duration marker. */
    void instant(Track track, std::string name, double ts_us)
    {
        instant(0, trackTid(track), std::move(name), ts_us);
    }
    /** Sample of a numeric series (phase "C"). */
    void counter(std::string name, double ts_us, double value)
    {
        counter(0, trackTid(Track::counters), std::move(name), ts_us,
                value);
    }

    // The same three kinds on process @p pid's thread track @p tid.

    void span(long pid, std::uint32_t tid, std::string name,
              double ts_us, double dur_us);
    void instant(long pid, std::uint32_t tid, std::string name,
                 double ts_us);
    void counter(long pid, std::uint32_t tid, std::string name,
                 double ts_us, double value);

    /** Name @p pid's process row. Names are not ring events: each one
     *  renders as a `process_name` record ahead of every event. */
    void setProcessName(long pid, std::string name);

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
        long pid;
        std::uint32_t tid;
        std::string name;
        double ts_us;
        double dur_us; ///< complete events
        double value;  ///< counter events
    };

    static std::uint32_t trackTid(Track track)
    {
        return static_cast<std::uint32_t>(track);
    }

    void record(Event e);

    std::size_t capacity_;
    std::size_t next_ = 0; ///< ring write cursor once full
    bool wrapped_ = false;
    std::uint64_t dropped_ = 0;
    std::vector<Event> events_;
    std::map<long, std::string> process_names_;
};

} // namespace inc::obs

#endif // INC_OBS_EVENT_TRACER_H
