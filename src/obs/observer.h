/**
 * @file
 * The Observer bundles everything a single simulation run publishes
 * into: a metrics registry, optional event tracer, and the plain-struct
 * hot counters the interpreter core / data memory / recompute queue
 * write through raw pointers (see obs/obs.h for the macro contract).
 *
 * Ownership: whoever drives a run (nvpsim, a sweep job, a test, a fuzz
 * trial) stack-allocates one Observer, points `SimConfig::obs` at it,
 * and reads/merges/serializes it after the run returns. The simulator
 * folds the hot-counter structs into named registry metrics at publish
 * time; nothing here is touched from more than one thread.
 */

#ifndef INC_OBS_OBSERVER_H
#define INC_OBS_OBSERVER_H

#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace inc::obs
{

class FlightRecorder;

struct Observer
{
    MetricsRegistry registry;

    /** Optional: attach to also capture a Chrome trace. Metrics-only
     *  runs (the fuzzer, sweeps) leave this null and skip all span
     *  bookkeeping. */
    EventTracer *tracer = nullptr;

    /** Optional: attach to also capture per-outage / per-frame flight
     *  records (obs/report/flight_recorder.h). All recorder hooks sit
     *  on cold paths (backup, restore, frame score) behind this null
     *  check. */
    FlightRecorder *flight = nullptr;

    CoreCounters core;
    MemCounters mem;
    QueueCounters queue;
};

} // namespace inc::obs

#endif // INC_OBS_OBSERVER_H
