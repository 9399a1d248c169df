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
 *     byte-for-byte — a strategy is a persistence + accounting
 *     overlay and may never feed back into the simulated trajectory.
 *
 *  2. Accounting consistency: each run's metrics registry must satisfy
 *     the full cross-metric identities of obs/schema.h, including the
 *     guarded ckpt.* block (commits == in-situ backups, restores +
 *     cold boots == sim restores, dirty words written <= tracked).
 *
 *  3. Dirty-tracking bound: the freezer's cumulative backup bytes must
 *     never exceed the full-image baseline's for the same trajectory.
 *
 *  4. Image integrity: every strategy's committed image slot must
 *     CRC-verify after the run (the runs bind a HeapBackend, so the
 *     image is real).
 *
 *  4b. Unbound accounting: each strategy re-run with no persistence
 *     backend (an inert image store) must report the same
 *     StrategyStats and commit sequence as its heap-bound run.
 *
 *  5. Persistence round-trip (every third trial): the active/freezer
 *     pair re-runs against a file-resident arena; the result must
 *     still equal the heap baseline, and after closing and reopening
 *     the arena the committed "ckpt" image must survive with the same
 *     sequence number and a matching CRC.
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
