#include "fleet/folder.h"

#include <utility>

#include "util/logging.h"

namespace inc::fleet
{

ResultFolder::ResultFolder(std::vector<runner::JobSpec> jobs)
    : jobs_(std::move(jobs)), slots_(jobs_.size()),
      filled_(jobs_.size(), false), signatures_(jobs_.size())
{
}

bool
ResultFolder::keepJournal(runner::SweepJournal *journal,
                          const std::string &fingerprint,
                          std::string *error)
{
    if (journal->bound() && (journal->boundFingerprint() != fingerprint ||
                             journal->jobsTotal() != jobs_.size())) {
        *error = util::format("holds journals for a different campaign "
                              "(fingerprint %s, this campaign is %s)",
                              journal->boundFingerprint().c_str(),
                              fingerprint.c_str());
        return false;
    }
    if (!journal->bound() && !journal->bind(fingerprint, jobs_.size())) {
        *error = "could not persist its journal's bind record";
        return false;
    }
    // Each journaled job folds as the RESULT frame its run sent: both
    // round-trip bit-exactly, so a later re-run must match its bytes.
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!journal->completed(i))
            continue;
        runner::JobResult jr;
        std::string why;
        const bool loaded = journal->load(i, &jr, &why);
        jr.spec.index = i; // load() leaves the spec to its caller
        if (!loaded || !fold(toDecoded(jr), &why)) {
            *error = util::format("holds an unreadable record of job "
                                  "%zu (%s)",
                                  i, why.c_str());
            return false;
        }
    }
    journal_ = journal;
    return true;
}

bool
ResultFolder::fold(const DecodedResult &decoded, std::string *error)
{
    if (decoded.index >= jobs_.size()) {
        *error = util::format("RESULT for job %zu outside the %zu-job "
                              "campaign",
                              decoded.index, jobs_.size());
        return false;
    }
    std::string signature =
        decoded.result_text + '\0' + decoded.metrics_json;
    if (filled_[decoded.index]) {
        // A re-run of a folded job: determinism says the bytes must
        // match what was folded first.
        if (signature != signatures_[decoded.index]) {
            *error = util::format(
                "job %zu delivered twice with differing bytes "
                "(nondeterministic worker?)",
                decoded.index);
            return false;
        }
        return true;
    }
    runner::JobResult jr;
    if (!resultFromDecoded(decoded, jobs_[decoded.index], &jr, error))
        return false;
    slots_[decoded.index] = std::move(jr);
    signatures_[decoded.index] = std::move(signature);
    filled_[decoded.index] = true;
    ++filled_count_;
    if (journal_ && journal_->record(slots_[decoded.index]))
        ++recorded_count_;
    return true;
}

bool
ResultFolder::runUnfolded(runner::SweepRunner &runner,
                          const std::function<void()> &after_fold,
                          std::string *error)
{
    std::vector<runner::JobSpec> unfolded;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!filled_[i])
            unfolded.push_back(jobs_[i]);
    }
    bool ok = true;
    runner.runJobs(unfolded, [this, &after_fold, &ok,
                              error](runner::JobResult result) {
        ok = ok && fold(toDecoded(result), error);
        if (ok && after_fold)
            after_fold();
    });
    return ok;
}

std::size_t
ResultFolder::firstUnfolded(std::size_t begin, std::size_t end) const
{
    while (begin < end && filled_[begin])
        ++begin;
    return begin;
}

bool
ResultFolder::rangeComplete(std::size_t begin, std::size_t end) const
{
    return end <= jobs_.size() && firstUnfolded(begin, end) == end;
}

runner::SweepReport
ResultFolder::takeReport(double wall_seconds, unsigned jobs_used)
{
    for (std::size_t i = 0; i < filled_.size(); ++i) {
        if (!filled_[i])
            util::panic("ResultFolder: job %zu never folded", i);
    }
    runner::SweepReport report;
    report.results = std::move(slots_);
    report.wall_seconds = wall_seconds;
    report.jobs_used = jobs_used;
    return report;
}

} // namespace inc::fleet
