/**
 * @file
 * Power-gated multi-version nonvolatile register file (paper Sec. 4).
 *
 * Each architectural register is built from nonvolatile logic, carries an
 * AC (approximable) bit, and is extended from one to four versions to
 * hold incidental SIMD lanes; the extensions are powered off when
 * incidental computing is not employed. Comparison circuits report which
 * registers of a stored version match the current version — the
 * controller combines that vector with the compiler-generated mask to
 * decide SIMD adoption.
 *
 * Storage is lane-minor: a register's four versions sit side by side
 * (one 8-byte LaneWord), so one load fetches an operand for every lane
 * and the core computes all lanes of an op at once. A whole version
 * (RegSnapshot) is a gather across the rows; only lane spawn, adoption
 * and backup take one.
 */

#ifndef INC_NVP_REGISTER_FILE_H
#define INC_NVP_REGISTER_FILE_H

#include <array>
#include <bit>
#include <cstdint>

#include "isa/isa.h"

namespace inc::nvp
{

/** Maximum SIMD width (paper: "at most 4-way SIMD"). */
constexpr int kMaxLanes = 4;

/** One lane's architectural register snapshot. */
using RegSnapshot = std::array<std::uint16_t, isa::kNumRegs>;

/** One register across all lanes: element i is version (lane) i. */
using LaneWord = std::array<std::uint16_t, kMaxLanes>;

/** Multi-version register file with AC flags. */
class RegisterFile
{
  public:
    /** Read register @p reg of version @p version (r0 reads zero). */
    std::uint16_t read(int version, int reg) const;

    /** Write register @p reg of version @p version (r0 writes ignored). */
    void write(int version, int reg, std::uint16_t value);

    /**
     * Unchecked read for the predecoded fast path. Sound because (a)
     * operand fields come from 4-bit encodings so reg < kNumRegs, and
     * (b) the r0 row is invariantly zero — write()/writeFast()/
     * writeLanesFast() skip r0 and load()/clearVersion() re-zero it —
     * so no r0 special case is needed here.
     */
    std::uint16_t readFast(int version, int reg) const
    {
        return values_[static_cast<size_t>(reg)]
                      [static_cast<size_t>(version)];
    }

    /** Unchecked write for the fast path; preserves the r0-zero
     *  invariant readFast() relies on. */
    void writeFast(int version, int reg, std::uint16_t value)
    {
        if (reg == 0)
            return;
        values_[static_cast<size_t>(reg)][static_cast<size_t>(version)] =
            value;
    }

    /** Unchecked read of register @p reg in every version at once. */
    LaneWord lanesFast(int reg) const
    {
        return values_[static_cast<size_t>(reg)];
    }

    /**
     * Unchecked write of @p values into register @p reg of the versions
     * in @p lanes (bit i selects version i); the other versions keep
     * their value and r0 writes are ignored, as for writeFast().
     */
    void writeLanesFast(int reg, const LaneWord &values, unsigned lanes)
    {
        if (reg == 0)
            return;
        LaneWord &row = values_[static_cast<size_t>(reg)];
        const std::uint64_t keep = kLaneSelect[lanes];
        row = std::bit_cast<LaneWord>(
            (std::bit_cast<std::uint64_t>(row) & ~keep) |
            (std::bit_cast<std::uint64_t>(values) & keep));
    }

    /** Unchecked AC-flag probe for the fast path (reg < kNumRegs). */
    bool isAcFast(int reg) const { return (ac_mask_ >> reg) & 1; }

    /** Snapshot a whole version. */
    RegSnapshot snapshot(int version) const;

    /** Load a whole version from a snapshot. */
    void load(int version, const RegSnapshot &regs);

    /** Copy version @p src into version @p dst. */
    void copyVersion(int src, int dst);

    /** Zero a version (lane power-up state). */
    void clearVersion(int version);

    /** AC flags: bit i set => register i holds approximable data. */
    std::uint16_t acMask() const { return ac_mask_; }
    void setAcMask(std::uint16_t mask) { ac_mask_ = mask; }
    void orAcMask(std::uint16_t mask) { ac_mask_ |= mask; }
    void clearAcMask(std::uint16_t mask) { ac_mask_ &= ~mask; }
    bool isAc(int reg) const;

    /**
     * Comparison circuit: bitvector of registers whose values in
     * @p version equal those in @p other (bit i => register i matches).
     */
    std::uint16_t compareVersions(int version, int other) const;

    /**
     * Comparison against an external snapshot; used when a backed-up lane
     * is held in the resume buffer rather than a live version.
     */
    std::uint16_t compareSnapshot(int version,
                                  const RegSnapshot &regs) const;

  private:
    void checkVersion(int version) const;
    void checkReg(int reg) const;

    /** kLaneSelect[m]: a LaneWord's bits, all ones in the versions set
     *  in lane bitmask m and zero elsewhere (any byte order). */
    static constexpr std::array<std::uint64_t, 1u << kMaxLanes>
        kLaneSelect = [] {
            std::array<std::uint64_t, 1u << kMaxLanes> table{};
            for (unsigned m = 0; m < table.size(); ++m) {
                LaneWord word{};
                for (int v = 0; v < kMaxLanes; ++v) {
                    if ((m >> v) & 1)
                        word[static_cast<size_t>(v)] = 0xFFFF;
                }
                table[m] = std::bit_cast<std::uint64_t>(word);
            }
            return table;
        }();

    alignas(8) std::array<LaneWord, isa::kNumRegs> values_{};
    std::uint16_t ac_mask_ = 0;
};

} // namespace inc::nvp

#endif // INC_NVP_REGISTER_FILE_H
