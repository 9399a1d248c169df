#include "obs/event_tracer.h"

#include "obs/json.h"

namespace inc::obs
{

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    events_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void
EventTracer::record(const Event &e)
{
    if (events_.size() < capacity_) {
        events_.push_back(e);
        return;
    }
    // Ring is full: overwrite the oldest event, keep the loss counted.
    events_[next_] = e;
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
    ++dropped_;
}

void
EventTracer::span(Track track, const char *name, double ts_us,
                  double dur_us)
{
    record(Event{Phase::complete, track, name, ts_us, dur_us, 0.0});
}

void
EventTracer::instant(Track track, const char *name, double ts_us)
{
    record(Event{Phase::instant, track, name, ts_us, 0.0, 0.0});
}

void
EventTracer::counter(const char *name, double ts_us, double value)
{
    record(Event{Phase::counter, Track::counters, name, ts_us, 0.0,
                 value});
}

std::string
EventTracer::toChromeTraceJson() const
{
    JsonValue doc = JsonValue::object();
    JsonValue trace_events = JsonValue::array();

    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Oldest first: after a wrap the ring cursor points at the
        // oldest surviving record.
        const Event &e = events_[wrapped_ ? (next_ + i) % n : i];
        JsonValue ev = JsonValue::object();
        ev.set("name", JsonValue::of(std::string(e.name)));
        ev.set("ph", JsonValue::of(std::string(
                         1, static_cast<char>(e.phase))));
        ev.set("ts", JsonValue::of(e.ts_us));
        ev.set("pid", JsonValue::of(std::uint64_t{0}));
        ev.set("tid", JsonValue::of(static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(e.track))));
        switch (e.phase) {
          case Phase::complete:
            ev.set("dur", JsonValue::of(e.dur_us));
            break;
          case Phase::instant:
            ev.set("s", JsonValue::of(std::string("t")));
            break;
          case Phase::counter: {
            JsonValue args = JsonValue::object();
            args.set("value", JsonValue::of(e.value));
            ev.set("args", std::move(args));
            break;
          }
        }
        trace_events.push(std::move(ev));
    }

    doc.set("traceEvents", std::move(trace_events));
    doc.set("displayTimeUnit", JsonValue::of(std::string("ms")));
    if (dropped_ > 0) {
        JsonValue meta = JsonValue::object();
        meta.set("droppedEvents", JsonValue::of(dropped_));
        doc.set("metadata", std::move(meta));
    }
    return doc.dump() + "\n";
}

} // namespace inc::obs
