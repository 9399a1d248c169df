#include "arena/arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/crc32.h"
#include "util/fs.h"
#include "util/logging.h"

namespace inc::arena
{

namespace
{

constexpr std::uint64_t kDataMagic = 0x31544144414e4952ULL; // "RINADAT1"
constexpr std::uint64_t kLogMagic = 0x31474f4c414e4952ULL;  // "RINALOG1"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x43455249; // "IREC"
constexpr std::uint64_t kBlockAlign = 64;

enum RecordType : std::uint16_t
{
    kRecPut = 1,
    kRecErase = 2,
    kRecCommit = 3,
    kRecAlloc = 4,
    kRecFree = 5,
};

/** Fixed-size file header shared by arena.dat and arena.log. The CRC
 *  covers every preceding field; capacity is meaningful only for the
 *  data file. */
struct FileHeader
{
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint32_t reserved = 0;
    std::uint64_t capacity = 0;
    std::uint32_t pad = 0;
    std::uint32_t crc = 0;
};
static_assert(sizeof(FileHeader) == 32);

/** One log record header; key and payload bytes follow. body_crc
 *  covers key + payload, header_crc the preceding header fields. */
struct RecordHeader
{
    std::uint32_t magic = kRecordMagic;
    std::uint16_t type = 0;
    std::uint16_t reserved = 0;
    std::uint64_t epoch = 0;
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t body_crc = 0;
    std::uint32_t header_crc = 0;
};
static_assert(sizeof(RecordHeader) == 32);

std::uint32_t
headerCrc(const FileHeader &h)
{
    return util::crc32(&h, offsetof(FileHeader, crc));
}

std::uint32_t
recordHeaderCrc(const RecordHeader &h)
{
    return util::crc32(&h, offsetof(RecordHeader, header_crc));
}

void
writeAll(int fd, const void *data, std::size_t size, std::uint64_t at,
         const char *what)
{
    const auto *p = static_cast<const char *>(data);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::pwrite(fd, p + done, size - done,
                                   static_cast<off_t>(at + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("arena: write of ") +
                                     what + " failed: " +
                                     std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) / align * align;
}

std::string
packAlloc(std::uint64_t offset, std::uint64_t size)
{
    std::string payload(16, '\0');
    std::memcpy(payload.data(), &offset, 8);
    std::memcpy(payload.data() + 8, &size, 8);
    return payload;
}

} // namespace

std::unique_ptr<Arena>
Arena::open(const std::string &dir, const Options &options)
{
    if (!util::ensureDir(dir))
        throw std::runtime_error("arena: cannot create directory '" +
                                 dir + "'");
    std::unique_ptr<Arena> arena(new Arena());
    arena->dir_ = dir;
    arena->fail_after_ = options.fail_after_log_bytes;

    struct stat st;
    const std::string log_path = dir + "/arena.log";
    if (::stat(log_path.c_str(), &st) == 0)
        arena->recover(options);
    else
        arena->createFiles(options);
    return arena;
}

Arena::~Arena()
{
    // A crash-consistent store must be correct with *no* shutdown path
    // at all (that is the whole point), so the destructor only releases
    // resources.
    if (data_ != nullptr)
        ::munmap(data_, data_capacity_);
    if (log_fd_ >= 0)
        ::close(log_fd_);
}

void
Arena::mapData(std::size_t capacity)
{
    const std::string path = dir_ + "/arena.dat";
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        throw std::runtime_error("arena: cannot open '" + path +
                                 "': " + std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("arena: cannot stat '" + path +
                                 "': " + std::strerror(err));
    }
    // Only ever extend: truncating an existing file downward would
    // destroy committed block contents when a reopen passes a smaller
    // data_capacity than a prior session used.
    if (static_cast<std::uint64_t>(st.st_size) < capacity &&
        ::ftruncate(fd, static_cast<off_t>(capacity)) != 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("arena: cannot size '" + path +
                                 "': " + std::strerror(err));
    }
    void *map = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map == MAP_FAILED)
        throw std::runtime_error("arena: mmap of '" + path +
                                 "' failed: " + std::strerror(errno));
    data_ = static_cast<std::uint8_t *>(map);
    data_capacity_ = capacity;
}

void
Arena::createFiles(const Options &options)
{
    const std::size_t capacity =
        alignUp(std::max<std::size_t>(options.data_capacity, 4096),
                4096);
    mapData(capacity);

    FileHeader data_header;
    data_header.magic = kDataMagic;
    data_header.version = kFormatVersion;
    data_header.capacity = capacity;
    data_header.crc = headerCrc(data_header);
    std::memcpy(data_, &data_header, sizeof data_header);
    bump_ = alignUp(sizeof data_header, kBlockAlign);

    const std::string log_path = dir_ + "/arena.log";
    log_fd_ = ::open(log_path.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd_ < 0)
        throw std::runtime_error("arena: cannot create '" + log_path +
                                 "': " + std::strerror(errno));
    FileHeader log_header;
    log_header.magic = kLogMagic;
    log_header.version = kFormatVersion;
    log_header.crc = headerCrc(log_header);
    writeAll(log_fd_, &log_header, sizeof log_header, 0, "log header");
    log_end_ = sizeof log_header;
    if (::fsync(log_fd_) != 0)
        util::warn("arena: fsync of fresh log failed: %s",
                   std::strerror(errno));
}

void
Arena::recover(const Options &options)
{
    const auto t0 = std::chrono::steady_clock::now();

    // ---- data heap: validate the header, map the stored capacity -----
    const std::string dat_path = dir_ + "/arena.dat";
    FileHeader data_header;
    {
        const int fd = ::open(dat_path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            throw std::runtime_error("arena: cannot open '" + dat_path +
                                     "': " + std::strerror(errno));
        const ssize_t n =
            ::pread(fd, &data_header, sizeof data_header, 0);
        ::close(fd);
        if (n != static_cast<ssize_t>(sizeof data_header) ||
            data_header.magic != kDataMagic ||
            data_header.version != kFormatVersion ||
            data_header.crc != headerCrc(data_header))
            throw std::runtime_error("arena: '" + dat_path +
                                     "' has a corrupt header");
    }
    mapData(static_cast<std::size_t>(
        std::max<std::uint64_t>(data_header.capacity,
                                options.data_capacity)));
    if (data_capacity_ > data_header.capacity) {
        // Keep the stored capacity in step with the file, so a later
        // reopen with a smaller Options::data_capacity still maps (and
        // never shrinks past) everything this session may bump into.
        data_header.capacity = data_capacity_;
        data_header.crc = headerCrc(data_header);
        std::memcpy(data_, &data_header, sizeof data_header);
    }

    // ---- log: read fully, then replay to the last consistent epoch ---
    const std::string log_path = dir_ + "/arena.log";
    log_fd_ = ::open(log_path.c_str(), O_RDWR | O_CLOEXEC);
    if (log_fd_ < 0)
        throw std::runtime_error("arena: cannot open '" + log_path +
                                 "': " + std::strerror(errno));
    struct stat st;
    if (::fstat(log_fd_, &st) != 0)
        throw std::runtime_error("arena: cannot stat '" + log_path +
                                 "': " + std::strerror(errno));
    std::vector<char> log(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < log.size()) {
        const ssize_t n = ::pread(log_fd_, log.data() + got,
                                  log.size() - got,
                                  static_cast<off_t>(got));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("arena: cannot read '" + log_path +
                                     "': " + std::strerror(errno));
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    log.resize(got);

    FileHeader log_header;
    if (log.size() < sizeof log_header)
        throw std::runtime_error("arena: '" + log_path +
                                 "' is truncated below its header");
    std::memcpy(&log_header, log.data(), sizeof log_header);
    if (log_header.magic != kLogMagic ||
        log_header.version != kFormatVersion ||
        log_header.crc != headerCrc(log_header))
        throw std::runtime_error("arena: '" + log_path +
                                 "' has a corrupt header");

    // Staged view: operations of the epoch currently being replayed.
    // A commit record folds them in; a torn or invalid record (or EOF)
    // discards them — the log is consistent only up to the last commit.
    std::map<std::string, Block> staged_blocks = blocks_;
    std::map<std::string, std::string> staged_kv = kv_;
    std::uint64_t offset = sizeof log_header;
    std::uint64_t committed_end = offset;
    std::uint64_t replayed_at_commit = 0;
    bool replay_ok = true;

    while (replay_ok && offset + sizeof(RecordHeader) <= log.size()) {
        RecordHeader rec;
        std::memcpy(&rec, log.data() + offset, sizeof rec);
        if (rec.magic != kRecordMagic ||
            rec.header_crc != recordHeaderCrc(rec))
            break;
        const std::uint64_t body_len =
            static_cast<std::uint64_t>(rec.key_len) + rec.payload_len;
        if (offset + sizeof rec + body_len > log.size())
            break; // torn tail: record body never fully landed
        const char *key_ptr = log.data() + offset + sizeof rec;
        if (util::crc32(key_ptr, static_cast<std::size_t>(body_len)) !=
            rec.body_crc)
            break;
        if (rec.epoch != epoch_ + 1)
            break; // stale or corrupt epoch stamp
        const std::string key(key_ptr, rec.key_len);
        const std::string payload(key_ptr + rec.key_len,
                                  rec.payload_len);
        ++stats_.replayed_records;
        switch (rec.type) {
          case kRecPut:
            staged_kv[key] = payload;
            break;
          case kRecErase:
            staged_kv.erase(key);
            break;
          case kRecAlloc: {
            if (payload.size() != 16)
                break;
            Block block;
            std::memcpy(&block.offset, payload.data(), 8);
            std::memcpy(&block.size, payload.data() + 8, 8);
            // An extent outside the mapping would make blockData()
            // hand out pointers past it (SIGBUS). The header capacity
            // tracks every extension, so this only trips on corrupt
            // records — stop replay at the last sealed epoch, exactly
            // as for a failed CRC.
            if (block.offset < sizeof(FileHeader) ||
                block.size > data_capacity_ ||
                block.offset > data_capacity_ - block.size) {
                replay_ok = false;
                break;
            }
            staged_blocks[key] = block;
            break;
          }
          case kRecFree:
            staged_blocks.erase(key);
            break;
          case kRecCommit:
            blocks_ = staged_blocks;
            kv_ = staged_kv;
            ++epoch_;
            ++stats_.replayed_commits;
            committed_end = offset + sizeof rec + body_len;
            replayed_at_commit = stats_.replayed_records;
            break;
          default:
            break; // unknown types are skipped, not fatal
        }
        offset += sizeof rec + body_len;
    }

    // Only records that made it into a sealed epoch count as replayed.
    stats_.replayed_records = replayed_at_commit;
    stats_.discarded_tail_bytes = log.size() - committed_end;
    if (stats_.discarded_tail_bytes > 0) {
        if (::ftruncate(log_fd_,
                        static_cast<off_t>(committed_end)) != 0)
            util::warn("arena: could not truncate torn log tail: %s",
                       std::strerror(errno));
    }
    log_end_ = committed_end;

    bump_ = alignUp(sizeof(FileHeader), kBlockAlign);
    for (const auto &[name, block] : blocks_)
        bump_ = std::max(bump_, alignUp(block.offset + block.size,
                                        kBlockAlign));

    stats_.recovered = true;
    stats_.recovery_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
}

bool
Arena::appendRecord(std::uint16_t type, const std::string &key,
                    const std::string &payload)
{
    if (failed_)
        return false;

    RecordHeader rec;
    rec.type = type;
    rec.epoch = epoch_ + 1;
    rec.key_len = static_cast<std::uint32_t>(key.size());
    rec.payload_len = static_cast<std::uint32_t>(payload.size());
    std::uint32_t crc = util::crc32(key.data(), key.size());
    crc = util::crc32(crc, payload.data(), payload.size());
    rec.body_crc = crc;
    rec.header_crc = recordHeaderCrc(rec);

    std::string buf;
    buf.reserve(sizeof rec + key.size() + payload.size());
    buf.append(reinterpret_cast<const char *>(&rec), sizeof rec);
    buf += key;
    buf += payload;

    if (fail_after_ > 0) {
        const std::uint64_t room = fail_after_ > stats_.log_bytes
                                       ? fail_after_ - stats_.log_bytes
                                       : 0;
        if (buf.size() > room) {
            // The injected crash point lands inside this record: the
            // prefix reaches the file (a genuinely torn tail for the
            // recovery path to detect), the rest of the session writes
            // nothing.
            if (room > 0)
                writeAll(log_fd_, buf.data(), room, log_end_,
                         "torn record");
            stats_.log_bytes += room;
            failed_ = true;
            return false;
        }
    }

    writeAll(log_fd_, buf.data(), buf.size(), log_end_, "log record");
    log_end_ += buf.size();
    stats_.log_bytes += buf.size();
    ++stats_.log_records;
    return true;
}

std::uint8_t *
Arena::alloc(const std::string &name, std::size_t bytes, bool *existed)
{
    if (existed != nullptr)
        *existed = false;
    if (name.empty())
        throw std::runtime_error("arena: block name must be non-empty");
    const auto it = blocks_.find(name);
    if (it != blocks_.end()) {
        if (it->second.size == bytes) {
            if (existed != nullptr)
                *existed = true;
            return data_ + it->second.offset;
        }
        freeBlock(name);
    }
    const std::uint64_t offset = bump_;
    if (offset + bytes > data_capacity_)
        throw std::runtime_error(
            "arena: data heap exhausted allocating '" + name + "' (" +
            std::to_string(bytes) + " B; capacity " +
            std::to_string(data_capacity_) + " B)");
    bump_ = alignUp(offset + bytes, kBlockAlign);
    // Fresh blocks are contractually zero-filled, and the sparse file
    // alone does not guarantee it: recovery recomputes bump_ from
    // committed blocks only, so this extent may overlay pages written
    // through a block that was freed or never committed.
    std::memset(data_ + offset, 0, bytes);
    blocks_[name] = Block{offset, bytes};
    appendRecord(kRecAlloc, name, packAlloc(offset, bytes));
    return data_ + offset;
}

bool
Arena::hasBlock(const std::string &name) const
{
    return blocks_.count(name) > 0;
}

std::size_t
Arena::blockSize(const std::string &name) const
{
    const auto it = blocks_.find(name);
    return it == blocks_.end()
               ? 0
               : static_cast<std::size_t>(it->second.size);
}

std::uint8_t *
Arena::blockData(const std::string &name)
{
    const auto it = blocks_.find(name);
    if (it == blocks_.end())
        throw std::runtime_error("arena: no block named '" + name + "'");
    return data_ + it->second.offset;
}

std::uint8_t *
Arena::grow(const std::string &name, std::size_t bytes)
{
    const auto it = blocks_.find(name);
    if (it == blocks_.end())
        return alloc(name, bytes);
    const Block old = it->second;
    if (bytes <= old.size)
        return data_ + old.offset;
    const std::uint64_t offset = bump_;
    if (offset + bytes > data_capacity_)
        throw std::runtime_error("arena: data heap exhausted growing '" +
                                 name + "'");
    bump_ = alignUp(offset + bytes, kBlockAlign);
    std::memcpy(data_ + offset, data_ + old.offset,
                static_cast<std::size_t>(old.size));
    // The grown tail is fresh space and must honor the zero-fill
    // contract (see alloc()).
    std::memset(data_ + offset + old.size, 0,
                bytes - static_cast<std::size_t>(old.size));
    blocks_[name] = Block{offset, bytes};
    appendRecord(kRecAlloc, name, packAlloc(offset, bytes));
    return data_ + offset;
}

void
Arena::freeBlock(const std::string &name)
{
    if (blocks_.erase(name) > 0)
        appendRecord(kRecFree, name, "");
}

void
Arena::put(const std::string &key, const std::string &value)
{
    kv_[key] = value;
    appendRecord(kRecPut, key, value);
}

void
Arena::erase(const std::string &key)
{
    if (kv_.erase(key) > 0)
        appendRecord(kRecErase, key, "");
}

bool
Arena::get(const std::string &key, std::string *value) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return false;
    if (value != nullptr)
        *value = it->second;
    return true;
}

std::vector<std::string>
Arena::keys(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : kv_) {
        if (key.rfind(prefix, 0) == 0)
            out.push_back(key);
    }
    return out;
}

bool
Arena::commit()
{
    if (!appendRecord(kRecCommit, "", ""))
        return false;
    if (::fsync(log_fd_) != 0) {
        // The commit record may never reach disk; reporting the epoch
        // as sealed would let callers (SweepJournal::record) treat a
        // possibly-lost commit as durable. Kill the log like an
        // injected fault: nothing appended from here on persists.
        util::warn("arena: fsync failed, log is no longer durable: %s",
                   std::strerror(errno));
        failed_ = true;
        return false;
    }
    ++epoch_;
    ++stats_.commits;
    return true;
}

void
Arena::syncData()
{
    if (data_ != nullptr &&
        ::msync(data_, data_capacity_, MS_SYNC) != 0)
        util::warn("arena: msync failed: %s", std::strerror(errno));
}

} // namespace inc::arena
