/**
 * @file
 * The NVP's nonvolatile data memory (paper Sec. 4, "Data memory").
 *
 * Three layers of behaviour on top of a flat 64 KiB byte array:
 *
 *  - AC regions: address ranges declared approximable by the
 *    incidental(src, minbits, maxbits, policy) pragma. Loads/stores of
 *    AC data are truncated to the active bitwidth when memory
 *    approximation is enabled, and the region's retention-shaping policy
 *    determines both the (discounted) write energy and which low-order
 *    bits settle randomly across a power outage (applyOutageDecay).
 *
 *  - Versioned regions: ranges extended from 8 to 32 bits (4 versions)
 *    with 3 bits of precision metadata per version, supporting
 *    incidental SIMD lanes and recompute-and-combine. Lane 0 reads and
 *    writes the main version; lanes 1-3 read their own version
 *    (falling back to main when never written) and write through with
 *    higher-bits arbitration: a write updates the main version iff its
 *    precision is >= the main version's current precision tag.
 *
 *  - The assemble instruction's merge FSM: combine versions into main
 *    over a range with one of the Table 1 modes.
 */

#ifndef INC_NVP_MEMORY_H
#define INC_NVP_MEMORY_H

#include <array>
#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "nvm/retention_policy.h"
#include "obs/obs.h"
#include "util/bit_ops.h"
#include "util/rng.h"

namespace inc::nvp
{

/** An approximable memory range and its backup retention policy. */
struct AcRegion
{
    std::uint32_t start = 0;
    std::uint32_t length = 0;
    nvm::RetentionPolicy policy = nvm::RetentionPolicy::full;

    bool contains(std::uint32_t addr) const
    {
        return addr >= start && addr < start + length;
    }
};

/** The NVP data memory. */
class DataMemory
{
  public:
    /** Number of SIMD versions per word (paper: 8 -> 32 bits). */
    static constexpr int kMaxVersions = 4;

    explicit DataMemory(util::Rng rng,
                        std::size_t size = isa::kDataMemBytes);

    std::size_t size() const { return size_; }

    // ---- configuration -------------------------------------------------

    /** Declare an approximable region with a retention policy. */
    void addAcRegion(const AcRegion &region);

    /**
     * Declare a versioned (SIMD / RAC) region.
     *
     * @param write_through  when true (output regions), lane writes pass
     *     into the main version under higher-bits arbitration; when
     *     false (lane-private scratch), lane writes stay in their own
     *     version and never disturb lane 0's data.
     */
    void addVersionedRegion(std::uint32_t start, std::uint32_t length,
                            bool write_through = true);

    // Every per-lane access runs the lookups below, so they and the
    // common paths of load8/store8 are defined here, inline.

    /** Policy of the AC region containing @p addr (full if none; where
     *  regions overlap, the first declared wins). */
    nvm::RetentionPolicy policyAt(std::uint32_t addr) const
    {
        for (const AcRegion &r : ac_regions_) {
            if (r.contains(addr))
                return r.policy;
        }
        return nvm::RetentionPolicy::full;
    }

    /** True if @p addr lies in a declared AC region. */
    bool isAc(std::uint32_t addr) const
    {
        for (const AcRegion &r : ac_regions_) {
            if (r.contains(addr))
                return true;
        }
        return false;
    }

    // ---- lane accesses -------------------------------------------------

    /**
     * Load one byte for @p lane. @p bits is the lane's active bitwidth;
     * when @p approx_mem is true and the address is in an AC region the
     * low (8-bits) bits are truncated (paper Sec. 8.1 memory model).
     */
    std::uint8_t load8(int lane, std::uint32_t addr, int bits,
                       bool approx_mem)
    {
        checkAddr(addr);
        INC_OBS_COUNT(obs_, loads);
        std::uint8_t value = main_[addr];
        if (lane > 0) {
            if (const VersionedRegion *r = findVersioned(addr)) {
                const std::uint32_t i = addr - r->start;
                if (r->written[i] & (1u << lane))
                    value = r->cells[i].value[static_cast<size_t>(lane)];
            }
        }
        if (approx_mem && bits < 8 && isAc(addr)) {
            INC_OBS_COUNT(obs_, ac_truncated_loads);
            value = truncateToBits(value, bits);
        }
        return value;
    }

    /**
     * Store one byte from @p lane with precision tag @p bits. AC-region
     * truncation as for load8; versioned regions apply higher-bits
     * write-through arbitration into the main version.
     */
    void store8(int lane, std::uint32_t addr, std::uint8_t value, int bits,
                bool approx_mem)
    {
        checkAddr(addr);
        INC_OBS_COUNT(obs_, stores);
        if (approx_mem && bits < 8 && isAc(addr)) {
            INC_OBS_COUNT(obs_, ac_truncated_stores);
            value = truncateToBits(value, bits);
        }
        if (lane > 0) {
            if (VersionedRegion *r = findVersioned(addr)) {
                storeLane(*r, lane, addr, value, bits);
                return;
            }
        }
        markDirty(addr);
        main_[addr] = value;
        main_prec_[addr] = static_cast<std::uint8_t>(bits);
    }

    // ---- versioned-region management ------------------------------------

    /**
     * Reset versioned bytes in [start, start+len): main value and all
     * versions zeroed, precision tags cleared. Called when an output ring
     * slot is first claimed by a new frame.
     */
    void resetVersionedRange(std::uint32_t start, std::uint32_t len);

    /** Forget lane @p lane's private version data everywhere (retire). */
    void clearLaneVersions(int lane);

    /**
     * Merge versions 1..3 into main over [start, start+len) with
     * @p mode; clears merged version slots. Returns bytes processed by
     * the FSM (for cycle/energy accounting).
     */
    std::uint32_t assemble(std::uint32_t start, std::uint32_t len,
                           isa::AssembleMode mode);

    /** Precision tag of the main version at @p addr (0 outside
     *  versioned regions or when never written). */
    int precisionAt(std::uint32_t addr) const;

    // ---- power-failure behaviour ----------------------------------------

    /**
     * Apply retention decay across an outage of @p duration_tenth_ms:
     * every AC-region byte's expired low bits settle randomly. Violation
     * events are counted once per (region policy, bit index) and flips
     * per byte-bit (paper Fig. 22).
     *
     * Stream contract: regions are visited in declaration order and,
     * within a region whose cutoff is nonzero, every byte in address
     * order takes the low 8 bits of exactly one Rng::next() draw as its
     * expired bits — whether or not they change. Regions that do not
     * expire draw nothing. Every run, digest and golden depends on
     * this order; tests/test_memory.cc holds a byte-at-a-time oracle.
     * Dirty tracking marks exactly the words of bytes whose value
     * changed.
     */
    void applyOutageDecay(double duration_tenth_ms);

    const nvm::RetentionFailureCounts &failures() const
    {
        return failures_;
    }

    // ---- host (sensor DMA / harness) access ------------------------------

    std::uint8_t hostRead8(std::uint32_t addr) const;
    void hostWrite8(std::uint32_t addr, std::uint8_t value);
    void hostWriteBlock(std::uint32_t addr,
                        const std::vector<std::uint8_t> &data);

    /** Snapshot main-version bytes of [start, start+len). */
    std::vector<std::uint8_t> snapshot(std::uint32_t start,
                                       std::uint32_t len) const;

    /** Per-byte coverage: fraction of [start,start+len) with prec > 0. */
    double coverage(std::uint32_t start, std::uint32_t len) const;

    /** Per-byte written mask (1 where precision > 0). */
    std::vector<std::uint8_t> precisionMask(std::uint32_t start,
                                            std::uint32_t len) const;

    /** Attach (or detach with nullptr) hot-path event counters; purely
     *  observational. */
    void setObsCounters(obs::MemCounters *counters) { obs_ = counters; }

    // ---- dirty-word tracking (Freezer backup strategy) -------------------

    /** Dirty-tracking granularity: one bit per 4-byte word. */
    static constexpr std::uint32_t kDirtyWordBytes = 4;

    /**
     * Start marking words whose main-version bytes are written. Off by
     * default — the bitmap is empty and every write path pays only one
     * predictable branch. Tracking covers ALL main_ mutations (lane
     * stores, write-through commits, assemble merges, versioned resets,
     * outage decay, host/DMA writes), so a consumer that copies exactly
     * the marked words after each clearDirty() interval can never miss
     * a changed byte (the property tests/test_dirty_bitmap.cc proves).
     * Over-reporting is allowed: a bit covers its whole 4-byte word and
     * is set even when a write stores the value already present.
     */
    void enableDirtyTracking();
    bool dirtyTrackingEnabled() const { return !dirty_.empty(); }

    /** Clear every dirty bit (start of a new tracking interval). */
    void clearDirty();

    /** Number of words currently marked dirty. */
    std::uint64_t dirtyWordCount() const;

    /** Raw bitmap, bit w = word [w*4, w*4+4) dirty. Empty when tracking
     *  is disabled. */
    const std::vector<std::uint64_t> &dirtyBits() const { return dirty_; }

  private:
    struct VersionedRegion
    {
        std::uint32_t start = 0;
        std::uint32_t length = 0;
        bool write_through = true;
        // Lane-private values and precision tags for lanes 1..3.
        struct Cell
        {
            std::array<std::uint8_t, kMaxVersions> value{};
            std::array<std::uint8_t, kMaxVersions> prec{};
            // Per-lane contribution already folded into main by a
            // sum-mode assemble. Re-merging replaces the contribution
            // instead of re-adding it, so recompute passes that
            // re-produce an identical frame are idempotent.
            std::array<std::uint8_t, kMaxVersions> merged_value{};
            std::uint8_t merged = 0;
        };
        std::vector<Cell> cells;
        // Bit i of written[k] => lane i has a private copy of byte
        // start + k. Kept apart from the cells so retiring a lane
        // clears one byte array.
        std::vector<std::uint8_t> written;
    };

    /** The first declared versioned region containing @p addr. */
    VersionedRegion *findVersioned(std::uint32_t addr)
    {
        for (VersionedRegion &r : versioned_) {
            if (addr >= r.start && addr < r.start + r.length)
                return &r;
        }
        return nullptr;
    }

    void checkAddr(std::uint32_t addr) const
    {
        if (addr >= size_) [[unlikely]]
            outOfRange(addr);
    }

    [[noreturn]] static void outOfRange(std::uint32_t addr);

    /** store8 of lane > 0 into versioned region @p r. */
    void storeLane(VersionedRegion &r, int lane, std::uint32_t addr,
                   std::uint8_t value, int bits);

    static std::uint8_t truncateToBits(std::uint8_t value, int bits)
    {
        return static_cast<std::uint8_t>(
            util::truncateLow(value, static_cast<unsigned>(bits), 8));
    }

    void markDirty(std::uint32_t addr)
    {
        if (dirty_.empty())
            return;
        const std::uint32_t w = addr / kDirtyWordBytes;
        dirty_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }

    void markDirtyRange(std::uint32_t addr, std::size_t len)
    {
        if (dirty_.empty() || len == 0)
            return;
        const std::uint32_t first = addr / kDirtyWordBytes;
        const std::uint32_t last =
            (addr + static_cast<std::uint32_t>(len) - 1) / kDirtyWordBytes;
        for (std::uint32_t w = first; w <= last; ++w)
            dirty_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }

    std::size_t size_ = 0;
    std::vector<std::uint8_t> main_;      ///< size_ bytes
    std::vector<std::uint8_t> main_prec_; ///< size_ precision tags
    std::vector<AcRegion> ac_regions_;
    std::vector<VersionedRegion> versioned_;
    util::Rng rng_;
    nvm::RetentionFailureCounts failures_;
    obs::MemCounters *obs_ = nullptr;
    /** One bit per 4-byte main_ word; empty = tracking disabled. */
    std::vector<std::uint64_t> dirty_;
};

} // namespace inc::nvp

#endif // INC_NVP_MEMORY_H
