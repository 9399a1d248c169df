/**
 * @file
 * The coordinator <-> worker line protocol (DESIGN.md §15).
 *
 * Every message is one ASCII header line ending in '\n', optionally
 * followed by a binary payload whose length the header states — so a
 * reader never scans payload bytes for framing, and the serialized
 * SimResult / metrics JSON travel verbatim:
 *
 *   worker -> coordinator
 *     HELLO <fingerprint> <pid>
 *     RESULT <index> <attempts> <ok> <result_len> <metrics_len>
 *            <error_len> \n <result><metrics><error>
 *     DONE <shard_id>
 *
 *   coordinator -> worker
 *     SHARD <id> <begin> <end>
 *     EXIT
 *
 *   coordinator -> status client (the --status-socket endpoint)
 *     STATE <len> \n <snapshot_json>
 *
 * Workers send no frame for telemetry alone: the coordinator builds
 * its live view and its fleet trace from the RESULT and DONE frames it
 * folds (DESIGN.md §16).
 *
 * RESULT payloads carry sim::serializeResult() text (hexfloat,
 * bit-exact round-trip) and the job's canonical metrics JSON (empty
 * when metrics were not collected — the SweepJournal convention), so
 * folding decoded results reproduces the serial sweep byte-for-byte.
 * Any RESULT a worker sends also doubles as its heartbeat.
 *
 * MessageReader is an incremental parser: feed() it raw socket bytes
 * in any fragmentation and next() yields complete messages. It is the
 * single framing implementation used by both endpoints (and by the
 * fleet_merge fuzzer mode, which pushes every shard result through
 * encode -> feed -> decode to pin the round trip).
 */

#ifndef INC_FLEET_PROTOCOL_H
#define INC_FLEET_PROTOCOL_H

#include <cstddef>
#include <string>

#include "runner/shard.h"
#include "runner/sweep.h"

namespace inc::fleet
{

/** One framed message: the header line (no '\n') + raw payload. */
struct Message
{
    std::string line;
    std::string payload;
};

/** Header keyword of @p line ("RESULT", "SHARD", ...). */
std::string messageKind(const std::string &line);

/** Incremental frame parser over a byte stream. */
class MessageReader
{
  public:
    /** Append raw bytes received from the peer. */
    void feed(const char *data, std::size_t n);

    /**
     * Extract the next complete message. Returns false with empty
     * @p error when more bytes are needed, false with @p error set on
     * a malformed header (the connection should be dropped then).
     */
    bool next(Message *out, std::string *error);

  private:
    std::string buffer_;
    std::string line_;
    std::size_t need_ = 0;
    bool have_line_ = false;
};

// --- encoders -------------------------------------------------------

std::string encodeHello(const std::string &fingerprint, long pid);
std::string encodeShard(const runner::ShardRange &shard);
std::string encodeExit();
std::string encodeDone(std::size_t shard_id);

/** Full RESULT frame (header + payloads) for one finished job. */
std::string encodeResult(const runner::JobResult &result);

/** Full STATE frame around a status-snapshot JSON document. */
std::string encodeState(const std::string &snapshot_json);

// --- decoders -------------------------------------------------------

/** A RESULT decoded back to the fields a JobResult needs. */
struct DecodedResult
{
    std::size_t index = 0;
    int attempts = 0;
    bool ok = false;
    std::string result_text;  ///< sim::serializeResult() bytes
    std::string metrics_json; ///< empty when not collected
    std::string error;        ///< failed-job message (ok == false)
};

bool parseHello(const std::string &line, std::string *fingerprint,
                long *pid);
bool parseShard(const std::string &line, runner::ShardRange *out);
bool parseDone(const std::string &line, std::size_t *shard_id);

/** Decode a RESULT message; false + @p error on malformed frames. */
bool decodeResult(const Message &message, DecodedResult *out,
                  std::string *error);

/** Decode a STATE message into its snapshot JSON. */
bool decodeState(const Message &message, std::string *snapshot_json,
                 std::string *error);

/**
 * The decoded form of the RESULT frame @p result travels as: what a
 * worker's frame decodes to, and what `sweep --arena` and a kept
 * journal fold in-process (ResultFolder::fold).
 */
DecodedResult toDecoded(const runner::JobResult &result);

/**
 * Rebuild the JobResult of @p spec from a decoded frame: result text
 * parsed bit-exactly, metrics JSON re-parsed (wall_ms stays 0 — a
 * scheduling artifact). False + @p error when the payload does not
 * parse or @p decoded names a different job index.
 */
bool resultFromDecoded(const DecodedResult &decoded,
                       const runner::JobSpec &spec,
                       runner::JobResult *out, std::string *error);

} // namespace inc::fleet

#endif // INC_FLEET_PROTOCOL_H
