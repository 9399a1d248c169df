/**
 * @file
 * The journal-recovery fuzzer invariant (TrialMode::arena_recovery).
 *
 * Two layers, both pure in the TrialSpec:
 *
 *  1. Crash-point sweep over the sweep journal's log, kept by a
 *     fleet::ResultFolder as every campaign keeps it: a deterministic
 *     script (bind 1–8 jobs, then fold synthetic results — failed
 *     ones, repeats and indices past the campaign among them — drawn
 *     from spec.program_seed) is dry-run in a scratch journal to
 *     measure its total log length; a fault byte is then sampled and
 *     the same script re-run with Options::fail_after_log_bytes at that
 *     byte. A record is durable exactly when its append returned true
 *     (the folder's recordedCount() moved), so reopening the faulted
 *     journal must recover exactly what those calls left: the binding,
 *     the completed job set, each job's result bytes, and a log
 *     truncated back to its durable prefix.
 *
 *  2. Warm-restart byte-identity (every third trial): a mini 2-job
 *     sweep is run uninterrupted (golden), then replayed as a partially
 *     journaled campaign — one job folded into a kept journal, the
 *     journal closed and recovered, the campaign resumed through a
 *     fresh folder as `sweep --arena --resume` resumes it — and the
 *     resumed run's per-job serialized results and merged metrics JSON
 *     must equal the golden run byte-for-byte.
 */

#ifndef INC_CHECK_RECOVERY_TRIAL_H
#define INC_CHECK_RECOVERY_TRIAL_H

#include "check/diff_harness.h"

namespace inc::check
{

/** Execute one arena_recovery trial; pure in the spec. */
Divergence runArenaTrial(const TrialSpec &spec);

} // namespace inc::check

#endif // INC_CHECK_RECOVERY_TRIAL_H
