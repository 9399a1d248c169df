#include "runner/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "sim/result_io.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/logging.h"

namespace inc::runner
{

namespace
{

constexpr std::uint64_t kLogMagic = 0x31474f4c414e4952ULL; // "RINALOG1"
/** Version 1 was the key/value epoch log of the retired persistence
 *  arena; it is refused, never read. */
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::uint32_t kRecordMagic = 0x43455249; // "IREC"

enum RecordType : std::uint16_t
{
    kRecBind = 1, ///< value = job count, payload = campaign fingerprint
    kRecJob = 2,  ///< value = job index, payload = journaled result
};

/** The log's file header. The CRC covers every preceding field, laid
 *  out as version 1 laid them out, so an older log is recognised by its
 *  version rather than reported as corrupt. */
struct FileHeader
{
    std::uint64_t magic = kLogMagic;
    std::uint32_t version = kFormatVersion;
    std::uint32_t reserved[4] = {};
    std::uint32_t crc = 0;
};
static_assert(sizeof(FileHeader) == 32);

/** One record header; payload bytes follow. payload_crc covers the
 *  payload, header_crc the preceding header fields. */
struct RecordHeader
{
    std::uint32_t magic = kRecordMagic;
    std::uint16_t type = 0;
    std::uint16_t reserved = 0;
    std::uint64_t value = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;
    std::uint32_t pad = 0;
    std::uint32_t header_crc = 0;
};
static_assert(sizeof(RecordHeader) == 32);

std::uint32_t
fileHeaderCrc(const FileHeader &h)
{
    return util::crc32(&h, offsetof(FileHeader, crc));
}

std::uint32_t
recordHeaderCrc(const RecordHeader &h)
{
    return util::crc32(&h, offsetof(RecordHeader, header_crc));
}

/** The failed call's errno, read before anything can overwrite it. */
std::runtime_error
ioError(const char *what, const std::string &path)
{
    const std::string reason = std::strerror(errno);
    return std::runtime_error(std::string("journal: ") + what + " '" +
                              path + "': " + reason);
}

void
writeAll(int fd, const char *data, std::size_t size, std::uint64_t at)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::pwrite(fd, data + done, size - done,
                                   static_cast<off_t>(at + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("journal: log write failed: ") +
                std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

std::string
readAll(int fd, const std::string &path)
{
    struct stat st;
    if (::fstat(fd, &st) != 0)
        throw ioError("cannot stat", path);
    std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n = ::pread(fd, bytes.data() + got,
                                  bytes.size() - got,
                                  static_cast<off_t>(got));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ioError("cannot read", path);
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
    return bytes;
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

std::unique_ptr<SweepJournal>
SweepJournal::open(const std::string &dir, const Options &options)
{
    if (!util::ensureDir(dir))
        throw std::runtime_error("journal: cannot create directory '" +
                                 dir + "'");
    std::unique_ptr<SweepJournal> journal(new SweepJournal());
    journal->fail_after_ = options.fail_after_log_bytes;
    const std::string path = dir + "/arena.log";
    struct stat st;
    if (::stat(path.c_str(), &st) == 0)
        journal->recover(path);
    else
        journal->create(path);
    return journal;
}

SweepJournal::~SweepJournal()
{
    // A crash-consistent log must be correct with *no* shutdown path at
    // all, so the destructor only releases the descriptor.
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepJournal::create(const std::string &path)
{
    // O_EXCL: a log that appeared after open()'s stat() is refused,
    // never truncated.
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throw ioError("cannot create", path);
    FileHeader header;
    header.crc = fileHeaderCrc(header);
    writeAll(fd_, reinterpret_cast<const char *>(&header), sizeof header,
             0);
    end_ = sizeof header;
    if (::fsync(fd_) != 0)
        util::warn("journal: fsync of fresh log failed: %s",
                   std::strerror(errno));
}

void
SweepJournal::recover(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0)
        throw ioError("cannot open", path);
    const std::string log = readAll(fd_, path);

    FileHeader header;
    if (log.size() < sizeof header)
        throw std::runtime_error("journal: '" + path +
                                 "' is truncated below its header");
    std::memcpy(&header, log.data(), sizeof header);
    if (header.magic != kLogMagic || header.crc != fileHeaderCrc(header))
        throw std::runtime_error("journal: '" + path +
                                 "' has a corrupt header");
    if (header.version != kFormatVersion)
        throw std::runtime_error(
            "journal: '" + path + "' is format version " +
            std::to_string(header.version) + "; this build reads " +
            std::to_string(kFormatVersion) +
            " — start the campaign in a fresh directory");

    // Replay up to the first record that fails a check: it and
    // everything after it are a torn tail.
    std::uint64_t offset = sizeof header;
    while (offset + sizeof(RecordHeader) <= log.size()) {
        RecordHeader rec;
        std::memcpy(&rec, log.data() + offset, sizeof rec);
        if (rec.magic != kRecordMagic ||
            rec.header_crc != recordHeaderCrc(rec))
            break;
        const std::uint64_t next = offset + sizeof rec + rec.payload_len;
        if (next > log.size())
            break;
        const char *payload = log.data() + offset + sizeof rec;
        if (util::crc32(payload, rec.payload_len) != rec.payload_crc)
            break;
        const bool in_order =
            jobs_total_ == 0
                ? rec.type == kRecBind && rec.value >= 1
                : rec.type == kRecJob && rec.value < jobs_total_ &&
                      jobs_.count(rec.value) == 0;
        if (!in_order)
            break;
        std::string text(payload, rec.payload_len);
        if (rec.type == kRecBind) {
            fingerprint_ = std::move(text);
            jobs_total_ = static_cast<std::size_t>(rec.value);
        } else {
            jobs_.emplace(static_cast<std::size_t>(rec.value),
                          std::move(text));
        }
        ++stats_.replayed_records;
        offset = next;
    }

    // Without the tail gone, a later append shorter than it would leave
    // stale bytes behind for the next replay to misread.
    stats_.discarded_tail_bytes = log.size() - offset;
    if (stats_.discarded_tail_bytes > 0 &&
        ::ftruncate(fd_, static_cast<off_t>(offset)) != 0)
        throw ioError("cannot truncate the torn tail of", path);
    end_ = offset;

    stats_.recovered = true;
    stats_.recovery_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
}

bool
SweepJournal::append(std::uint16_t type, std::uint64_t value,
                     const std::string &payload)
{
    if (failed_)
        return false;
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::runtime_error("journal: record payload too large");

    RecordHeader rec;
    rec.type = type;
    rec.value = value;
    rec.payload_len = static_cast<std::uint32_t>(payload.size());
    rec.payload_crc = util::crc32(payload.data(), payload.size());
    rec.header_crc = recordHeaderCrc(rec);
    std::string buf(reinterpret_cast<const char *>(&rec), sizeof rec);
    buf += payload;

    if (fail_after_ > 0) {
        const std::uint64_t room =
            fail_after_ > stats_.appended_bytes
                ? fail_after_ - stats_.appended_bytes
                : 0;
        if (buf.size() > room) {
            // The injected crash point lands inside this record: the
            // prefix reaches the file (a genuinely torn tail for the
            // recovery path to detect), the rest of the session writes
            // nothing.
            writeAll(fd_, buf.data(), static_cast<std::size_t>(room),
                     end_);
            stats_.appended_bytes += room;
            failed_ = true;
            return false;
        }
    }

    writeAll(fd_, buf.data(), buf.size(), end_);
    if (::fsync(fd_) != 0) {
        // The record may never reach disk; reporting it as durable
        // would let a resume skip a job whose result is lost. Kill the
        // log like an injected fault: nothing appended from here on
        // persists.
        util::warn("journal: fsync failed, log is no longer durable: %s",
                   std::strerror(errno));
        failed_ = true;
        return false;
    }
    end_ += buf.size();
    stats_.appended_bytes += buf.size();
    ++stats_.appended_records;
    return true;
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
    // A retired spec field, hashed as its constant 0 so fingerprints
    // keep the values every journal stores and
    // Campaign.FingerprintsMatchJournalsWrittenBeforeTheKnobTable pins.
    crc = crcU64(crc, 0);
    crc = crcU64(crc, jobs.size());
    for (const JobSpec &j : jobs)
        crc = crcU64(crc, j.rng_seed);
    crc = crcString(crc, extra);

    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", crc);
    return buf;
}

bool
SweepJournal::bind(const std::string &fingerprint, std::size_t num_jobs)
{
    if (jobs_total_ > 0 || num_jobs == 0 ||
        !append(kRecBind, num_jobs, fingerprint))
        return false;
    fingerprint_ = fingerprint;
    jobs_total_ = num_jobs;
    return true;
}

bool
SweepJournal::load(std::size_t index, JobResult *out,
                   std::string *error) const
{
    const auto it = jobs_.find(index);
    if (it == jobs_.end()) {
        if (error)
            *error = "journal entry missing";
        return false;
    }
    const std::string &payload = it->second;

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
        return false; // failed jobs re-run on resume
    const std::size_t index = result.spec.index;
    if (index >= jobs_total_ || jobs_.count(index) > 0)
        return false;

    const std::string result_text = sim::serializeResult(result.result);
    const std::string metrics_json =
        result.metrics.empty() ? std::string() : result.metrics.toJson();

    char header[96];
    std::snprintf(header, sizeof header,
                  "attempts=%d\nresult_bytes=%zu\n", result.attempts,
                  result_text.size());
    std::string payload = header + result_text + metrics_json;
    if (!append(kRecJob, index, payload))
        return false;
    jobs_.emplace(index, std::move(payload));
    return true;
}

} // namespace inc::runner
