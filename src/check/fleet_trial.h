/**
 * @file
 * The fleet shard/merge fuzzer invariant (TrialMode::fleet_merge).
 *
 * One fuzzed mini-sweep (kernel subset, variant count, metrics
 * collection and an optional injected job failure, all drawn from the
 * trial stream) runs un-sharded as the oracle, then split by
 * runner::planShards() into 2 shards, each run as a worker runs it
 * (SweepRunner::runJobs() over its slice of the expansion) with every
 * delivered JobResult encoded as a RESULT frame. The frame
 * streams are interleaved in a fuzzed order, re-fragmented into fuzzed
 * chunks through a MessageReader, decoded and folded by a
 * ResultFolder: the coordinator's merge path, minus the sockets. The
 * fold must match the oracle byte-for-byte on serialized SimResults,
 * ok/attempts/error and the merged metrics JSON.
 *
 * Every third trial is the coordinator's restart: shard 0 is folded
 * into a journal (ResultFolder::keepJournal), which a fresh folder
 * reopens; it must hold exactly shard 0's ok jobs, and the remaining
 * frames (the other shard's, and shard 0's failed jobs the journal
 * does not keep) complete it.
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
