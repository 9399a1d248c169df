#include "sim/strategy/image_store.h"

#include <cstdio>
#include <cstring>

#include "arena/backend.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace inc::sim
{

ImageStore::ImageStore(arena::PersistenceBackend *backend,
                       std::string prefix, std::size_t state_bytes,
                       std::size_t meta_bytes)
    : state_bytes_(state_bytes), meta_bytes_(meta_bytes)
{
    if (meta_bytes_ < kMetaBytes)
        util::fatal("ImageStore meta block must hold at least %zu bytes",
                    kMetaBytes);
    if (!backend) {
        meta_ = inert_meta_.data();
        return;
    }
    bool image_existed = false;
    bool meta_existed = false;
    image_ = backend->acquire(prefix + ".image", 2 * state_bytes_,
                              &image_existed);
    meta_ = backend->acquire(prefix + ".meta", meta_bytes_,
                             &meta_existed);
    if (image_existed && meta_existed && meta_[0] == 1)
        warm_start_ = true;
    std::memcpy(&boot_seq_, meta_ + 8, sizeof boot_seq_);
}

bool
ImageStore::hasCommitted() const
{
    return meta_[0] == 1;
}

std::uint64_t
ImageStore::committedSeq() const
{
    std::uint64_t seq = 0;
    std::memcpy(&seq, meta_ + 8, sizeof seq);
    return seq;
}

std::size_t
ImageStore::inactiveIndex() const
{
    return meta_[1] != 0 ? 0 : 1;
}

const std::uint8_t *
ImageStore::committedSlot() const
{
    return image_ ? image_ + (meta_[1] != 0 ? 1 : 0) * state_bytes_
                  : nullptr;
}

void
ImageStore::writeByte(std::size_t offset, std::uint8_t value)
{
    if (!image_)
        return;
    image_[inactiveIndex() * state_bytes_ + offset] = value;
}

void
ImageStore::writeSpan(std::size_t offset, const std::uint8_t *data,
                      std::size_t len)
{
    if (!image_ || len == 0)
        return;
    std::memcpy(image_ + inactiveIndex() * state_bytes_ + offset, data,
                len);
}

void
ImageStore::commit(std::uint64_t seq)
{
    const std::size_t inactive = inactiveIndex();
    if (image_ && meta_bytes_ >= kMetaBytesCrc) {
        // CRC first: once the flip lands, the named slot already has a
        // matching checksum, so a kill anywhere in here verifies.
        const std::uint32_t crc =
            util::crc32(image_ + inactive * state_bytes_, state_bytes_);
        std::memcpy(meta_ + 16 + 4 * inactive, &crc, sizeof crc);
    }
    // The legacy commit order (byte-identical under the 16-byte "ac"
    // layout): flip the active slot, then mark valid, then the seq.
    meta_[1] = static_cast<std::uint8_t>(inactive);
    meta_[0] = 1;
    std::memcpy(meta_ + 8, &seq, sizeof seq);
}

bool
ImageStore::verifyCommitted(std::string *why) const
{
    if (!image_ || !hasCommitted() || meta_bytes_ < kMetaBytesCrc)
        return true;
    const std::size_t active = meta_[1] != 0 ? 1 : 0;
    std::uint32_t want = 0;
    std::memcpy(&want, meta_ + 16 + 4 * active, sizeof want);
    const std::uint32_t got =
        util::crc32(image_ + active * state_bytes_, state_bytes_);
    if (got == want)
        return true;
    if (why) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "committed slot %zu CRC %08x != recorded %08x",
                      active, got, want);
        *why = buf;
    }
    return false;
}

} // namespace inc::sim
