#include "runner/journal.h"

#include <cstdio>
#include <cstdlib>

#include "sim/result_io.h"
#include "util/crc32.h"

namespace inc::runner
{

namespace
{

constexpr char kKeyFingerprint[] = "sweep.fingerprint";
constexpr char kKeyJobs[] = "sweep.jobs";
constexpr char kKeyDone[] = "sweep.done";

std::string
jobKey(std::size_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "job.%zu", index);
    return buf;
}

std::uint32_t
crcU64(std::uint32_t crc, std::uint64_t v)
{
    return util::crc32(crc, &v, sizeof v);
}

std::uint32_t
crcString(std::uint32_t crc, const std::string &s)
{
    crc = crcU64(crc, s.size());
    return util::crc32(crc, s.data(), s.size());
}

} // namespace

SweepJournal::SweepJournal(arena::Arena *arena) : arena_(arena)
{
    std::string jobs_text;
    if (!arena_->get(kKeyFingerprint, &fingerprint_) ||
        !arena_->get(kKeyJobs, &jobs_text) ||
        !arena_->get(kKeyDone, &done_))
        return; // fresh arena: stay unbound
    jobs_total_ =
        static_cast<std::size_t>(std::strtoull(jobs_text.c_str(),
                                               nullptr, 10));
    const std::size_t want = (jobs_total_ + 7) / 8;
    if (jobs_total_ == 0 || done_.size() != want) {
        // Inconsistent (shouldn't happen: bind() commits atomically).
        fingerprint_.clear();
        jobs_total_ = 0;
        done_.clear();
    }
}

std::string
SweepJournal::fingerprint(const SweepSpec &spec,
                          const std::vector<JobSpec> &jobs,
                          const std::string &extra)
{
    std::uint32_t crc = 0;
    crc = crcU64(crc, spec.kernels.size());
    for (const std::string &k : spec.kernels)
        crc = crcString(crc, k);
    crc = crcU64(crc, spec.traces.size());
    for (const trace::PowerTrace &t : spec.traces) {
        crc = crcString(crc, t.name());
        crc = crcU64(crc, t.size());
        // Sample *contents* matter: same-named traces from different
        // captures must not alias.
        crc = util::crc32(crc, t.samples().data(),
                          t.samples().size() * sizeof(double));
    }
    crc = crcU64(crc, spec.variants.size());
    for (const ConfigVariant &v : spec.variants)
        crc = crcString(crc, v.name);
    crc = crcU64(crc, spec.master_seed);
    // A retired spec field, hashed as its constant 0 so arenas already
    // on disk keep their fingerprints;
    // Campaign.FingerprintsMatchJournalsWrittenBeforeTheKnobTable pins them.
    crc = crcU64(crc, 0);
    crc = crcU64(crc, jobs.size());
    for (const JobSpec &j : jobs)
        crc = crcU64(crc, j.rng_seed);
    crc = crcString(crc, extra);

    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", crc);
    return buf;
}

std::size_t
SweepJournal::completedCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (std::size_t i = 0; i < jobs_total_; ++i)
        n += completedLocked(i) ? 1 : 0;
    return n;
}

void
SweepJournal::bind(const std::string &fingerprint, std::size_t num_jobs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    fingerprint_ = fingerprint;
    jobs_total_ = num_jobs;
    done_.assign((num_jobs + 7) / 8, '\0');

    char jobs_text[32];
    std::snprintf(jobs_text, sizeof jobs_text, "%zu", num_jobs);
    arena_->put(kKeyFingerprint, fingerprint_);
    arena_->put(kKeyJobs, jobs_text);
    arena_->put(kKeyDone, done_);
    arena_->commit();
}

bool
SweepJournal::completed(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completedLocked(index);
}

bool
SweepJournal::completedLocked(std::size_t index) const
{
    if (index >= jobs_total_)
        return false;
    return (static_cast<unsigned char>(done_[index / 8]) >>
            (index % 8)) &
           1u;
}

bool
SweepJournal::load(std::size_t index, JobResult *out,
                   std::string *error) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string payload;
    if (!arena_->get(jobKey(index), &payload)) {
        if (error)
            *error = "journal entry missing";
        return false;
    }

    // Header: "attempts=<n>\nresult_bytes=<len>\n", then <len> result
    // bytes, then the metrics JSON (possibly empty).
    int attempts = 0;
    unsigned long long result_len = 0;
    int header_end = -1;
    if (std::sscanf(payload.c_str(), "attempts=%d\nresult_bytes=%llu\n%n",
                    &attempts, &result_len, &header_end) < 2 ||
        header_end < 0 ||
        static_cast<std::size_t>(header_end) + result_len >
            payload.size()) {
        if (error)
            *error = "journal entry malformed";
        return false;
    }

    const std::string result_text =
        payload.substr(static_cast<std::size_t>(header_end),
                       static_cast<std::size_t>(result_len));
    const std::string metrics_json = payload.substr(
        static_cast<std::size_t>(header_end) +
        static_cast<std::size_t>(result_len));

    JobResult jr;
    jr.attempts = attempts;
    jr.ok = true;
    if (!sim::parseResult(result_text, &jr.result, error))
        return false;
    if (!metrics_json.empty() &&
        !obs::MetricsRegistry::fromJson(metrics_json, &jr.metrics,
                                        error))
        return false;
    *out = std::move(jr);
    return true;
}

bool
SweepJournal::record(const JobResult &result)
{
    if (!result.ok)
        return true; // failed jobs re-run on resume
    std::lock_guard<std::mutex> lock(mutex_);
    if (result.spec.index >= jobs_total_ ||
        completedLocked(result.spec.index))
        return true;

    const std::string result_text = sim::serializeResult(result.result);
    const std::string metrics_json =
        result.metrics.empty() ? std::string() : result.metrics.toJson();

    char header[96];
    std::snprintf(header, sizeof header,
                  "attempts=%d\nresult_bytes=%zu\n", result.attempts,
                  result_text.size());
    arena_->put(jobKey(result.spec.index),
                header + result_text + metrics_json);

    done_[result.spec.index / 8] = static_cast<char>(
        static_cast<unsigned char>(done_[result.spec.index / 8]) |
        (1u << (result.spec.index % 8)));
    arena_->put(kKeyDone, done_);
    return arena_->commit();
}

} // namespace inc::runner
