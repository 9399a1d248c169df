/**
 * @file
 * The fleet shard/merge fuzzer invariant (TrialMode::fleet_merge).
 *
 * One fuzzed mini-sweep (kernel subset, variant count, metrics
 * collection, and an optional injected job failure all drawn from the
 * trial stream) is executed two ways, both pure in the TrialSpec:
 *
 *   1. Un-sharded oracle: a plain SweepRunner over the full grid.
 *
 *   2. Fleet path: the grid is split by runner::planShards() across 2
 *      shards, each shard runs through a range-restricted SweepRunner
 *      whose delivery hook encodes every JobResult into a RESULT wire
 *      frame (fleet/protocol.h). The shards' frame streams are then
 *      interleaved in a fuzzed order, re-fragmented into fuzzed chunk
 *      sizes through a MessageReader, decoded, and folded by a
 *      ResultFolder — exactly the coordinator's merge path, minus the
 *      sockets.
 *
 * The folded report must match the oracle byte-for-byte on the fleet
 * determinism surface: per-job serialized SimResults (hexfloat,
 * sim/result_io.h), ok/attempts/error fields, and the merged metrics
 * JSON. Every third trial additionally routes shard 0 through a
 * per-shard SweepJournal, reopens the journal, and replays the
 * shard from the journal (the reassigned-shard warm restart): the
 * replayed wire frames must equal the fresh run's frames byte-for-byte
 * and are the ones fed to the merge.
 */

#ifndef INC_CHECK_FLEET_TRIAL_H
#define INC_CHECK_FLEET_TRIAL_H

#include "check/diff_harness.h"

namespace inc::check
{

/** Execute one fleet_merge trial; pure in the spec. */
Divergence runFleetMergeTrial(const TrialSpec &spec);

} // namespace inc::check

#endif // INC_CHECK_FLEET_TRIAL_H
