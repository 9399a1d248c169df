/**
 * @file
 * The backup-strategy conformance fuzzer invariant
 * (TrialMode::strategy_diff).
 *
 * One fuzzed co-simulator trial is run once per registered checkpoint
 * strategy (sim::allStrategies()) over the identical spec, under the
 * full incidental machinery at dynamic bits. The checks, all pure in
 * the TrialSpec:
 *
 *  1. Overlay byte-identity: every strategy's serialized SimResult
 *     (sim/result_io.h) must equal the `active` baseline's
 *     byte-for-byte — a strategy is an accounting overlay and may
 *     never feed back into the simulated trajectory.
 *
 *  2. Accounting consistency: each run's metrics registry must satisfy
 *     the full cross-metric identities of obs/schema.h, including the
 *     guarded ckpt.* block (commits == in-situ backups, restores +
 *     cold boots == sim restores, dirty words written <= tracked).
 *
 *  3. Dirty-tracking bound: the freezer's cumulative backup bytes must
 *     never exceed the full-image baseline's for the same trajectory.
 */

#ifndef INC_CHECK_STRATEGY_TRIAL_H
#define INC_CHECK_STRATEGY_TRIAL_H

#include "check/diff_harness.h"

namespace inc::check
{

/** Execute one strategy_diff trial; pure in the spec. */
Divergence runStrategyTrial(const TrialSpec &spec);

} // namespace inc::check

#endif // INC_CHECK_STRATEGY_TRIAL_H
