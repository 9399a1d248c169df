/**
 * @file
 * Double-buffered checkpoint image storage on a PersistenceBackend.
 *
 * Extracted from sim/active_checkpoint so every backup strategy shares
 * one crash-safe commit discipline: two state-sized slots live in
 * "<prefix>.image" and a small metadata block in "<prefix>.meta"; all
 * in-flight writes target the *inactive* slot, and commit() publishes
 * it by flipping the active-slot byte only after the copy is complete.
 * A process killed at any byte therefore leaves the previously
 * committed slot untouched — the invariant both the active-checkpoint
 * baseline's torn-copy accounting and the strategy conformance tier
 * (tests/test_strategy_conformance.cc) are built on.
 *
 * Metadata layout (byte offsets, stable across PRs — the raw-layout
 * assertions in tests/test_arena_sweep.cc read it directly):
 *
 *   [0]      valid flag (1 after the first commit)
 *   [1]      active slot index (0 or 1)
 *   [8..15]  committed sequence number (u64, little-endian memcpy)
 *
 * With the extended kMetaBytesCrc layout (used by the strategy zoo;
 * the legacy 16-byte layout keeps "ac.meta" byte-identical):
 *
 *   [16..19] CRC32 of slot 0's committed content
 *   [20..23] CRC32 of slot 1's committed content
 *
 * The per-slot CRC is written *before* the active-slot flip, so a kill
 * anywhere inside commit() leaves a verifiable image: whatever slot
 * meta[1] names has a matching CRC (verifyCommitted()).
 */

#ifndef INC_SIM_STRATEGY_IMAGE_STORE_H
#define INC_SIM_STRATEGY_IMAGE_STORE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace inc::arena
{
class PersistenceBackend;
}

namespace inc::sim
{

class ImageStore
{
  public:
    /** Legacy metadata block (valid/slot/seq) — the exact bytes
     *  sim/active_checkpoint has always persisted under "ac.meta". */
    static constexpr std::size_t kMetaBytes = 16;
    /** Extended metadata with per-slot content CRCs. */
    static constexpr std::size_t kMetaBytesCrc = 32;

    /**
     * Acquire (get-or-create) "<prefix>.image" (2 x @p state_bytes) and
     * "<prefix>.meta" (@p meta_bytes) from @p backend. With a null
     * backend the store is inert: no image is materialized, image
     * writes are no-ops, no CRC is computed and warmStart() is false —
     * but commit() still keeps the valid flag, active slot and sequence
     * number in a private metadata block, so hasCommitted(),
     * committedSeq() and inactiveIndex() answer exactly as they would
     * over a backend (strategies' ckpt.* accounting reads them).
     * @p backend is not owned and must outlive this object.
     */
    ImageStore(arena::PersistenceBackend *backend, std::string prefix,
               std::size_t state_bytes,
               std::size_t meta_bytes = kMetaBytes);

    // meta_ may point into this object (the inert metadata block).
    ImageStore(const ImageStore &) = delete;
    ImageStore &operator=(const ImageStore &) = delete;

    bool materialized() const { return image_ != nullptr; }
    std::size_t stateBytes() const { return state_bytes_; }

    /** A committed image existed when this store was opened (warm
     *  restart on a persisted arena). */
    bool warmStart() const { return warm_start_; }

    /** Sequence number found at open (0 on a fresh store). */
    std::uint64_t bootSeq() const { return boot_seq_; }

    /** A committed image exists now (found at open or committed since). */
    bool hasCommitted() const;

    /** Committed sequence number as persisted (0 when none). */
    std::uint64_t committedSeq() const;

    /** Index of the slot in-flight writes target. */
    std::size_t inactiveIndex() const;

    const std::uint8_t *committedSlot() const;

    /** Write one byte of in-flight image state at @p offset of the
     *  inactive slot (the active-checkpoint copy loop's granularity). */
    void writeByte(std::size_t offset, std::uint8_t value);

    /** Write @p len bytes at @p offset of the inactive slot. */
    void writeSpan(std::size_t offset, const std::uint8_t *data,
                   std::size_t len);

    /**
     * Publish the inactive slot: record its CRC (extended layout only),
     * flip the active-slot byte, set the valid flag, persist @p seq.
     * The flip is the commit point — everything before it is invisible
     * to a reader of the committed slot.
     */
    void commit(std::uint64_t seq);

    /**
     * Check the committed slot against its recorded CRC. True when
     * there is nothing to verify (no backend, no committed image, or
     * the legacy CRC-less layout); false with *why set on a mismatch —
     * which would mean a torn commit escaped the double-buffer
     * discipline.
     */
    bool verifyCommitted(std::string *why = nullptr) const;

  private:
    std::size_t state_bytes_ = 0;
    std::size_t meta_bytes_ = 0;
    std::uint8_t *image_ = nullptr; ///< 2 x state_bytes_ (slot 0, slot 1)
    std::uint8_t *meta_ = nullptr;  ///< backend block, else inert_meta_
    /** The inert store's valid/slot/seq bytes (the legacy layout). */
    std::array<std::uint8_t, kMetaBytes> inert_meta_{};
    bool warm_start_ = false;
    std::uint64_t boot_seq_ = 0;
};

} // namespace inc::sim

#endif // INC_SIM_STRATEGY_IMAGE_STORE_H
