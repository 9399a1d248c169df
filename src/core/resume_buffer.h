/**
 * @file
 * The controller's circular nonvolatile resume-point buffer (paper
 * Sec. 4): the last N (four) interrupted computations, each recorded as
 * the PC where it stopped, the frame it was processing, and its register
 * snapshot (held in the multi-version nonvolatile register file; modeled
 * here as part of the entry). When the current PC matches an entry's PC
 * and the compiler-masked registers agree, the entry can be adopted as
 * an incidental SIMD lane; matched entries are cleared.
 */

#ifndef INC_CORE_RESUME_BUFFER_H
#define INC_CORE_RESUME_BUFFER_H

#include <array>
#include <cstdint>

#include "nvp/register_file.h"

namespace inc::core
{

/** One interrupted computation. */
struct ResumeEntry
{
    bool valid = false;
    std::uint16_t pc = 0;      ///< PC at interruption
    std::uint16_t frame = 0;   ///< frame being processed
    nvp::RegSnapshot regs{};   ///< register state at interruption
};

/** Fixed-capacity FIFO of resume entries. */
class ResumeBuffer
{
  public:
    static constexpr int kCapacity = 4;

    /** Insert an entry, evicting the oldest when full. */
    void push(const ResumeEntry &entry);

    /** Number of valid entries. O(1): the controller asks on every
     *  powered step whether anything is buffered. */
    int count() const { return valid_count_; }
    bool empty() const { return valid_count_ == 0; }

    /** Entry access (slot order is storage order, not age order). An
     *  entry's `valid` flag changes only through push() and the calls
     *  below, which keep count() in step. */
    ResumeEntry &at(int index);
    static constexpr int capacity() { return kCapacity; }

    /** Invalidate one slot. */
    void invalidate(int index);

    /** Invalidate everything. */
    void clear();

    /**
     * Index of the most recently pushed valid entry, or -1. Used at
     * restore time: the newest entry is the interrupted lane-0 state.
     */
    int newestIndex() const;

    /** Drop entries whose frame is older than @p oldest_live_frame. */
    int dropStale(std::uint32_t oldest_live_frame);

  private:
    std::array<ResumeEntry, kCapacity> entries_;
    std::array<std::uint64_t, kCapacity> seq_{};
    std::uint64_t next_seq_ = 1;
    int valid_count_ = 0; ///< entries_ with valid set
};

} // namespace inc::core

#endif // INC_CORE_RESUME_BUFFER_H
