/**
 * @file
 * The persistence arena: an mmap-backed, file-resident store for
 * campaign progress (DESIGN.md §12). runner::SweepJournal keeps each
 * completed job's result here, so a killed `sweep --arena` or fleet
 * worker resumes where it stopped. The simulated NVM is not stored
 * here: its power loss is modelled inside each run, so nothing needs
 * it to outlive the process. An arena is a directory with two files:
 *
 *   arena.dat  sparse, mmap'd data heap. Named blocks are carved out
 *              of it by a bump allocator; callers read and write the
 *              returned pointers directly, and those bytes persist
 *              across SIGKILL because they live in a shared file
 *              mapping (only power loss additionally needs syncData()).
 *
 *   arena.log  append-only, log-structured record index. Every
 *              mutation of the arena's *index* — block allocations and
 *              frees, key/value puts and erases — is appended as a
 *              CRC32-guarded record stamped with the epoch it will
 *              commit into; commit() seals the open epoch with a
 *              CRC32-guarded commit record and fsyncs.
 *
 * Recovery (open() on an existing directory) replays the log to the
 * last consistent epoch: records are validated (magic, header CRC,
 * body CRC, length bounds, epoch monotonicity) and staged; each valid
 * commit record folds the staged operations into the committed state.
 * The first invalid or truncated record — a torn tail — ends the
 * replay, and everything after the last commit record is discarded
 * and physically truncated. Index mutations made after the last
 * commit() therefore roll back on crash, while raw block *contents*
 * behave like NVM: whatever bytes were stored last survive.
 *
 * Fault injection (Options::fail_after_log_bytes) makes the log stop
 * persisting after N appended bytes — a record straddling the limit is
 * written only up to it, leaving a genuinely torn tail — so tests and
 * the check/ fuzzer can exercise every crash point deterministically
 * without forking processes.
 *
 * Not thread-safe; wrap with a mutex (runner::SweepJournal does).
 */

#ifndef INC_ARENA_ARENA_H
#define INC_ARENA_ARENA_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace inc::arena
{

/** Session statistics (`sweep --arena` prints them to stderr). */
struct ArenaStats
{
    std::uint64_t log_bytes = 0;    ///< log bytes appended this session
    std::uint64_t log_records = 0;  ///< records appended this session
    std::uint64_t commits = 0;      ///< commit records appended
    std::uint64_t replayed_records = 0; ///< records replayed at open
    std::uint64_t replayed_commits = 0; ///< commits replayed at open
    /** Torn/uncommitted tail bytes discarded by recovery. */
    std::uint64_t discarded_tail_bytes = 0;
    double recovery_ms = 0.0; ///< wall time of the open-replay pass
    bool recovered = false;   ///< opened an existing arena
};

class Arena
{
  public:
    struct Options
    {
        /** Virtual reservation for arena.dat. The file is sparse, so
         *  untouched pages cost nothing. */
        std::size_t data_capacity = 64u << 20;

        /**
         * Fault injection: stop persisting log bytes after this many
         * have been appended this session (0 = off). The record that
         * crosses the limit is written only up to it — a torn tail —
         * and every later append is dropped; commit() returns false
         * from then on.
         */
        std::uint64_t fail_after_log_bytes = 0;
    };

    /**
     * Create @p dir as a fresh arena, or recover the one already
     * there. Throws std::runtime_error on I/O or corruption the
     * recovery path cannot skip (bad file headers).
     */
    static std::unique_ptr<Arena> open(const std::string &dir,
                                       const Options &options);
    static std::unique_ptr<Arena> open(const std::string &dir)
    {
        return open(dir, Options{});
    }

    ~Arena();
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    const std::string &dir() const { return dir_; }

    /** Last committed (sealed) epoch; 0 on a fresh arena. */
    std::uint64_t epoch() const { return epoch_; }

    /** True once the log is dead — the injected fault tripped, or a
     *  real fsync failure made durability unknowable — and nothing
     *  appended since persists. */
    bool failed() const { return failed_; }

    const ArenaStats &stats() const { return stats_; }

    // ---- data heap (named blocks) ---------------------------------------

    /**
     * Allocate (or reopen) the named block. When a committed block of
     * this name and size already exists its persisted bytes are
     * returned and *existed is set; a size mismatch discards the old
     * block and allocates fresh (explicitly zero-filled — the extent
     * may reuse file pages behind blocks discarded by recovery).
     * The allocation is logged but, like every index mutation, only
     * survives a crash once commit() seals it. Pointers stay valid for
     * the arena's lifetime (the mapping never moves).
     */
    std::uint8_t *alloc(const std::string &name, std::size_t bytes,
                        bool *existed = nullptr);

    bool hasBlock(const std::string &name) const;
    std::size_t blockSize(const std::string &name) const;
    std::uint8_t *blockData(const std::string &name);

    /**
     * Grow the named block to @p bytes, copying the old contents into
     * the front of a fresh allocation (log-structured: the old extent
     * is abandoned, not reused). Returns the new pointer.
     */
    std::uint8_t *grow(const std::string &name, std::size_t bytes);

    /** Drop the block from the index (space reclaimed only by a future
     *  compaction — the log is append-only). */
    void freeBlock(const std::string &name);

    // ---- log-structured key/value index ----------------------------------

    /** Stage key := value. Visible to get() immediately; survives a
     *  crash only after the next commit(). */
    void put(const std::string &key, const std::string &value);

    void erase(const std::string &key);

    /** Current (staged + committed) view. */
    bool get(const std::string &key, std::string *value) const;

    /** Keys with @p prefix, sorted. */
    std::vector<std::string> keys(const std::string &prefix = "") const;

    // ---- durability -------------------------------------------------------

    /**
     * Seal the open epoch: append a commit record and fsync the log.
     * Returns false — and marks the arena failed() — when the injected
     * fault has tripped or the fsync itself fails; either way the
     * epoch is not durable and a reopen may roll back to the last
     * sealed one.
     */
    bool commit();

    /** msync the data heap (needed against power loss, not SIGKILL). */
    void syncData();

  private:
    Arena() = default;

    void createFiles(const Options &options);
    void recover(const Options &options);
    void mapData(std::size_t capacity);
    bool appendRecord(std::uint16_t type, const std::string &key,
                      const std::string &payload);

    struct Block
    {
        std::uint64_t offset = 0;
        std::uint64_t size = 0;
    };

    std::string dir_;
    int log_fd_ = -1;
    std::uint64_t log_end_ = 0; ///< append position in arena.log

    std::uint8_t *data_ = nullptr; ///< arena.dat mapping
    std::size_t data_capacity_ = 0;
    std::uint64_t bump_ = 0; ///< next free arena.dat offset

    std::map<std::string, Block> blocks_;
    std::map<std::string, std::string> kv_;

    std::uint64_t epoch_ = 0;
    bool failed_ = false;
    std::uint64_t fail_after_ = 0; ///< 0 = fault injection off

    ArenaStats stats_;
};

} // namespace inc::arena

#endif // INC_ARENA_ARENA_H
