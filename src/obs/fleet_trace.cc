#include "obs/fleet_trace.h"

#include <time.h>

#include "obs/json.h"
#include "util/fs.h"

namespace inc::obs
{

namespace
{

/** One event rendered to the shared wire/output object form. */
JsonValue
eventToJson(const FleetSpanEvent &e)
{
    JsonValue ev = JsonValue::object();
    ev.set("name", JsonValue::of(e.name));
    ev.set("ph", JsonValue::of(std::string(1, e.phase)));
    ev.set("ts", JsonValue::of(e.ts_us));
    ev.set("pid", JsonValue::of(static_cast<double>(e.pid)));
    ev.set("tid", JsonValue::of(static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(e.tid))));
    switch (e.phase) {
      case 'X':
        ev.set("dur", JsonValue::of(e.dur_us));
        break;
      case 'i':
        ev.set("s", JsonValue::of(std::string("t")));
        break;
      case 'C': {
        JsonValue args = JsonValue::object();
        args.set("value", JsonValue::of(e.value));
        ev.set("args", std::move(args));
        break;
      }
      default:
        break;
    }
    return ev;
}

bool
eventFromJson(const JsonValue &ev, FleetSpanEvent *out,
              std::string *error)
{
    if (!ev.isObject()) {
        *error = "span event is not an object";
        return false;
    }
    const JsonValue *name = ev.find("name");
    const JsonValue *ph = ev.find("ph");
    const JsonValue *ts = ev.find("ts");
    const JsonValue *pid = ev.find("pid");
    const JsonValue *tid = ev.find("tid");
    if (!name || !name->isString() || !ph || !ph->isString() ||
        ph->string().size() != 1 || !ts || !ts->isNumber() || !pid ||
        !pid->isNumber() || !tid || !tid->isNumber()) {
        *error = "span event is missing name/ph/ts/pid/tid";
        return false;
    }
    out->name = name->string();
    out->phase = ph->string()[0];
    if (out->phase != 'X' && out->phase != 'i' && out->phase != 'C') {
        *error = "span event has unknown phase '" + ph->string() + "'";
        return false;
    }
    out->ts_us = ts->number();
    out->pid = static_cast<long>(pid->number());
    out->tid = static_cast<int>(tid->number());
    out->dur_us = 0.0;
    out->value = 0.0;
    if (out->phase == 'X') {
        const JsonValue *dur = ev.find("dur");
        if (!dur || !dur->isNumber()) {
            *error = "span event '" + out->name + "' has no duration";
            return false;
        }
        out->dur_us = dur->number();
    }
    if (out->phase == 'C') {
        const JsonValue *args = ev.find("args");
        const JsonValue *value =
            args && args->isObject() ? args->find("value") : nullptr;
        if (!value || !value->isNumber()) {
            *error = "counter event '" + out->name + "' has no value";
            return false;
        }
        out->value = value->number();
    }
    return true;
}

} // namespace

double
wallClockUs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
}

SpanBatch::SpanBatch(std::size_t capacity) : capacity_(capacity) {}

void
SpanBatch::add(FleetSpanEvent event)
{
    if (capacity_ > 0 && events_.size() >= capacity_) {
        // Ring semantics on the pending set: drop the oldest event so
        // a slow/unsent batch stays bounded, and keep the loss
        // counted like EventTracer does.
        events_.erase(events_.begin());
        ++dropped_;
    }
    events_.push_back(std::move(event));
}

std::vector<FleetSpanEvent>
SpanBatch::take()
{
    std::vector<FleetSpanEvent> out;
    out.swap(events_);
    return out;
}

std::string
SpanBatch::toJson() const
{
    JsonValue arr = JsonValue::array();
    for (const FleetSpanEvent &e : events_)
        arr.push(eventToJson(e));
    return arr.dump();
}

bool
SpanBatch::fromJson(const std::string &text, SpanBatch *out,
                    std::string *error)
{
    JsonValue doc;
    if (!parseJson(text, &doc, error))
        return false;
    if (!doc.isArray()) {
        *error = "span batch is not a JSON array";
        return false;
    }
    for (const JsonValue &ev : doc.items()) {
        FleetSpanEvent e;
        if (!eventFromJson(ev, &e, error))
            return false;
        out->add(std::move(e));
    }
    return true;
}

void
FleetTraceMerger::setProcessName(long pid, const std::string &name)
{
    process_names_[pid] = name;
}

void
FleetTraceMerger::add(FleetSpanEvent event)
{
    events_.push_back(std::move(event));
}

void
FleetTraceMerger::add(const SpanBatch &batch)
{
    for (const FleetSpanEvent &e : batch.events())
        events_.push_back(e);
}

std::string
FleetTraceMerger::toChromeTraceJson(double base_ts_us) const
{
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

    for (const FleetSpanEvent &e : events_) {
        FleetSpanEvent shifted = e;
        shifted.ts_us =
            e.ts_us > base_ts_us ? e.ts_us - base_ts_us : 0.0;
        trace_events.push(eventToJson(shifted));
    }

    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(trace_events));
    doc.set("displayTimeUnit", JsonValue::of(std::string("ms")));
    return doc.dump() + "\n";
}

bool
FleetTraceMerger::writeChromeTraceJson(const std::string &path,
                                       double base_ts_us) const
{
    return util::writeFile(path, toChromeTraceJson(base_ts_us));
}

} // namespace inc::obs
