#include "core/resume_buffer.h"

#include "util/logging.h"

namespace inc::core
{

void
ResumeBuffer::push(const ResumeEntry &entry)
{
    // Find an invalid slot, else evict the oldest (lowest sequence).
    int slot = -1;
    for (int i = 0; i < kCapacity; ++i) {
        if (!entries_[static_cast<size_t>(i)].valid) {
            slot = i;
            break;
        }
    }
    if (slot >= 0) {
        ++valid_count_;
    } else {
        std::uint64_t oldest = seq_[0];
        slot = 0;
        for (int i = 1; i < kCapacity; ++i) {
            if (seq_[static_cast<size_t>(i)] < oldest) {
                oldest = seq_[static_cast<size_t>(i)];
                slot = i;
            }
        }
    }
    entries_[static_cast<size_t>(slot)] = entry;
    entries_[static_cast<size_t>(slot)].valid = true;
    seq_[static_cast<size_t>(slot)] = next_seq_++;
}

ResumeEntry &
ResumeBuffer::at(int index)
{
    if (index < 0 || index >= kCapacity)
        util::panic("ResumeBuffer index out of range: %d", index);
    return entries_[static_cast<size_t>(index)];
}

void
ResumeBuffer::invalidate(int index)
{
    ResumeEntry &e = at(index);
    if (e.valid) {
        e.valid = false;
        --valid_count_;
    }
}

void
ResumeBuffer::clear()
{
    for (auto &e : entries_)
        e.valid = false;
    valid_count_ = 0;
}

int
ResumeBuffer::newestIndex() const
{
    int best = -1;
    std::uint64_t best_seq = 0;
    for (int i = 0; i < kCapacity; ++i) {
        if (entries_[static_cast<size_t>(i)].valid &&
            seq_[static_cast<size_t>(i)] >= best_seq) {
            best_seq = seq_[static_cast<size_t>(i)];
            best = i;
        }
    }
    return best;
}

int
ResumeBuffer::dropStale(std::uint32_t oldest_live_frame)
{
    int dropped = 0;
    for (auto &e : entries_) {
        if (e.valid && e.frame < oldest_live_frame) {
            e.valid = false;
            ++dropped;
        }
    }
    valid_count_ -= dropped;
    return dropped;
}

} // namespace inc::core
