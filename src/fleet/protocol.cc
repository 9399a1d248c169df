#include "fleet/protocol.h"

#include <sstream>

#include "obs/metrics.h"
#include "sim/result_io.h"
#include "util/logging.h"

namespace inc::fleet
{

namespace
{

/**
 * Payload byte count a header line announces (RESULT: sum of its
 * three length fields; STATE: one length field; everything else:
 * none). False on a header whose lengths do not parse.
 */
bool
payloadBytes(const std::string &line, std::size_t *need,
             std::string *error)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    *need = 0;
    if (kind == "RESULT") {
        std::size_t index = 0, result_len = 0, metrics_len = 0,
                    error_len = 0;
        int attempts = 0, ok = 0;
        in >> index >> attempts >> ok >> result_len >> metrics_len >>
            error_len;
        if (!in) {
            *error = "malformed RESULT header: " + line;
            return false;
        }
        *need = result_len + metrics_len + error_len;
        return true;
    }
    if (kind == "STATE") {
        std::size_t len = 0;
        in >> len;
        if (!in) {
            *error = "malformed STATE header: " + line;
            return false;
        }
        *need = len;
        return true;
    }
    return true;
}

} // namespace

std::string
messageKind(const std::string &line)
{
    const std::size_t space = line.find(' ');
    return space == std::string::npos ? line : line.substr(0, space);
}

void
MessageReader::feed(const char *data, std::size_t n)
{
    buffer_.append(data, n);
}

bool
MessageReader::next(Message *out, std::string *error)
{
    error->clear();
    if (!have_line_) {
        const std::size_t nl = buffer_.find('\n');
        if (nl == std::string::npos)
            return false;
        line_ = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        if (!payloadBytes(line_, &need_, error))
            return false;
        have_line_ = true;
    }
    if (buffer_.size() < need_)
        return false;
    out->line = std::move(line_);
    out->payload = buffer_.substr(0, need_);
    buffer_.erase(0, need_);
    line_.clear();
    have_line_ = false;
    need_ = 0;
    return true;
}

std::string
encodeHello(const std::string &fingerprint, long pid)
{
    return util::format("HELLO %s %ld\n", fingerprint.c_str(), pid);
}

std::string
encodeShard(const runner::ShardRange &shard)
{
    return util::format("SHARD %zu %zu %zu\n", shard.id, shard.begin,
                        shard.end);
}

std::string
encodeExit()
{
    return "EXIT\n";
}

std::string
encodeDone(std::size_t shard_id)
{
    return util::format("DONE %zu\n", shard_id);
}

std::string
encodeResult(const runner::JobResult &result)
{
    const DecodedResult d = toDecoded(result);
    std::string frame = util::format(
        "RESULT %zu %d %d %zu %zu %zu\n", d.index, d.attempts,
        d.ok ? 1 : 0, d.result_text.size(), d.metrics_json.size(),
        d.error.size());
    frame += d.result_text;
    frame += d.metrics_json;
    frame += d.error;
    return frame;
}

std::string
encodeState(const std::string &snapshot_json)
{
    return util::format("STATE %zu\n", snapshot_json.size()) +
           snapshot_json;
}

bool
parseHello(const std::string &line, std::string *fingerprint,
           long *pid)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind >> *fingerprint >> *pid;
    return static_cast<bool>(in) && kind == "HELLO";
}

bool
parseShard(const std::string &line, runner::ShardRange *out)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind >> out->id >> out->begin >> out->end;
    return static_cast<bool>(in) && kind == "SHARD" &&
           out->begin < out->end;
}

bool
parseDone(const std::string &line, std::size_t *shard_id)
{
    std::istringstream in(line);
    std::string kind;
    in >> kind >> *shard_id;
    return static_cast<bool>(in) && kind == "DONE";
}

bool
decodeResult(const Message &message, DecodedResult *out,
             std::string *error)
{
    std::istringstream in(message.line);
    std::string kind;
    std::size_t result_len = 0, metrics_len = 0, error_len = 0;
    int ok = 0;
    in >> kind >> out->index >> out->attempts >> ok >> result_len >>
        metrics_len >> error_len;
    if (!in || kind != "RESULT") {
        *error = "malformed RESULT header: " + message.line;
        return false;
    }
    if (message.payload.size() != result_len + metrics_len + error_len) {
        *error = util::format("RESULT payload is %zu bytes, header "
                              "announced %zu",
                              message.payload.size(),
                              result_len + metrics_len + error_len);
        return false;
    }
    out->ok = ok != 0;
    out->result_text = message.payload.substr(0, result_len);
    out->metrics_json = message.payload.substr(result_len, metrics_len);
    out->error = message.payload.substr(result_len + metrics_len,
                                        error_len);
    return true;
}

bool
decodeState(const Message &message, std::string *snapshot_json,
            std::string *error)
{
    std::istringstream in(message.line);
    std::string kind;
    std::size_t len = 0;
    in >> kind >> len;
    if (!in || kind != "STATE") {
        *error = "malformed STATE header: " + message.line;
        return false;
    }
    if (message.payload.size() != len) {
        *error = util::format("STATE payload is %zu bytes, header "
                              "announced %zu",
                              message.payload.size(), len);
        return false;
    }
    *snapshot_json = message.payload;
    return true;
}

DecodedResult
toDecoded(const runner::JobResult &result)
{
    // The SweepJournal payload convention: serialized result text for
    // successful jobs, metrics JSON only when a registry was attached.
    DecodedResult d;
    d.index = result.spec.index;
    d.attempts = result.attempts;
    d.ok = result.ok;
    if (result.ok)
        d.result_text = sim::serializeResult(result.result);
    if (!result.metrics.empty())
        d.metrics_json = result.metrics.toJson();
    d.error = result.error;
    return d;
}

bool
resultFromDecoded(const DecodedResult &decoded,
                  const runner::JobSpec &spec, runner::JobResult *out,
                  std::string *error)
{
    if (decoded.index != spec.index) {
        *error = util::format("RESULT for job %zu folded against spec "
                              "of job %zu",
                              decoded.index, spec.index);
        return false;
    }
    runner::JobResult jr;
    jr.spec = spec;
    jr.attempts = decoded.attempts;
    jr.ok = decoded.ok;
    jr.error = decoded.error;
    if (decoded.ok &&
        !sim::parseResult(decoded.result_text, &jr.result, error))
        return false;
    if (!decoded.metrics_json.empty() &&
        !obs::MetricsRegistry::fromJson(decoded.metrics_json,
                                        &jr.metrics, error))
        return false;
    *out = std::move(jr);
    return true;
}

} // namespace inc::fleet
