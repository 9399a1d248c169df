#include "obs/report/flight_recorder.h"

#include "obs/metrics.h"
#include "obs/schema.h"

namespace inc::obs
{

void
publishFlightDrops(const FlightRecorder &flight,
                   MetricsRegistry &registry)
{
    registry.counter(kFlightDroppedOutages)
        .inc(flight.droppedOutages());
    registry.counter(kFlightDroppedFrames).inc(flight.droppedFrames());
}

const char *
resumeKindName(ResumeKind kind)
{
    switch (kind) {
    case ResumeKind::cold_boot:
        return "cold_boot";
    case ResumeKind::plain_resume:
        return "plain_resume";
    case ResumeKind::roll_forward:
        return "roll_forward";
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t max_outages,
                               std::size_t max_frames)
    : max_outages_(max_outages), max_frames_(max_frames)
{
    outages_.reserve(max_outages_ < 64 ? max_outages_ : 64);
    frames_.reserve(max_frames_ < 64 ? max_frames_ : 64);
}

OutageRecord *
FlightRecorder::appendOutage()
{
    if (outages_.size() >= max_outages_) {
        ++dropped_outages_;
        return nullptr;
    }
    outages_.emplace_back();
    return &outages_.back();
}

OutageRecord *
FlightRecorder::openOutage()
{
    if (outages_.empty() || outages_.back().resumed)
        return nullptr;
    return &outages_.back();
}

FrameRecord *
FlightRecorder::appendFrame()
{
    if (frames_.size() >= max_frames_) {
        ++dropped_frames_;
        return nullptr;
    }
    frames_.emplace_back();
    return &frames_.back();
}

JsonValue
outageToJson(const OutageRecord &o)
{
    JsonValue rec = JsonValue::object();
    rec.set("fail_sample", JsonValue::of(o.fail_sample));
    rec.set("pc", JsonValue::of(std::uint64_t(o.pc)));
    rec.set("frame", JsonValue::of(std::uint64_t(o.frame)));
    rec.set("stored_nj", JsonValue::of(o.stored_nj));
    rec.set("lanes", JsonValue::of(std::uint64_t(o.lanes)));
    rec.set("bits_written", JsonValue::of(std::uint64_t(o.bits_written)));
    rec.set("torn", JsonValue::of(o.torn));
    rec.set("resumed", JsonValue::of(o.resumed));
    if (o.resumed) {
        rec.set("outage_samples", JsonValue::of(o.outage_samples));
        rec.set("resume",
                JsonValue::of(std::string(resumeKindName(o.resume))));
        rec.set("resume_bits",
                JsonValue::of(std::uint64_t(o.resume_bits)));
        rec.set("retention_decays", JsonValue::of(o.retention_decays));
    }
    return rec;
}

JsonValue
frameToJson(const FrameRecord &f)
{
    JsonValue rec = JsonValue::object();
    rec.set("frame", JsonValue::of(std::uint64_t(f.frame)));
    rec.set("capture_sample", JsonValue::of(f.capture_sample));
    rec.set("age_samples", JsonValue::of(f.age_samples));
    rec.set("mse", JsonValue::of(f.mse));
    rec.set("psnr", JsonValue::of(f.psnr));
    rec.set("coverage", JsonValue::of(f.coverage));
    rec.set("bits", JsonValue::of(std::uint64_t(f.bits)));
    return rec;
}

} // namespace inc::obs
