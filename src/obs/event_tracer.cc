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
EventTracer::record(Event e)
{
    if (events_.size() < capacity_) {
        events_.push_back(std::move(e));
        return;
    }
    // Ring is full: overwrite the oldest event, keep the loss counted.
    events_[next_] = std::move(e);
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
    ++dropped_;
}

void
EventTracer::span(long pid, std::uint32_t tid, std::string name,
                  double ts_us, double dur_us)
{
    record(Event{Phase::complete, pid, tid, std::move(name), ts_us,
                 dur_us, 0.0});
}

void
EventTracer::instant(long pid, std::uint32_t tid, std::string name,
                     double ts_us)
{
    record(Event{Phase::instant, pid, tid, std::move(name), ts_us, 0.0,
                 0.0});
}

void
EventTracer::counter(long pid, std::uint32_t tid, std::string name,
                     double ts_us, double value)
{
    record(Event{Phase::counter, pid, tid, std::move(name), ts_us, 0.0,
                 value});
}

void
EventTracer::setProcessName(long pid, std::string name)
{
    process_names_[pid] = std::move(name);
}

std::string
EventTracer::toChromeTraceJson() const
{
    JsonValue doc = JsonValue::object();
    JsonValue trace_events = JsonValue::array();

    for (const auto &[pid, name] : process_names_) {
        JsonValue meta = JsonValue::object();
        meta.set("name", JsonValue::of(std::string("process_name")));
        meta.set("ph", JsonValue::of(std::string("M")));
        meta.set("pid", JsonValue::of(static_cast<double>(pid)));
        meta.set("tid", JsonValue::of(std::uint64_t{0}));
        JsonValue args = JsonValue::object();
        args.set("name", JsonValue::of(name));
        meta.set("args", std::move(args));
        trace_events.push(std::move(meta));
    }

    const std::size_t n = events_.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Oldest first: after a wrap the ring cursor points at the
        // oldest surviving record.
        const Event &e = events_[wrapped_ ? (next_ + i) % n : i];
        JsonValue ev = JsonValue::object();
        ev.set("name", JsonValue::of(e.name));
        ev.set("ph", JsonValue::of(std::string(
                         1, static_cast<char>(e.phase))));
        ev.set("ts", JsonValue::of(e.ts_us));
        ev.set("pid", JsonValue::of(static_cast<double>(e.pid)));
        ev.set("tid", JsonValue::of(static_cast<std::uint64_t>(e.tid)));
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
