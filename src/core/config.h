/**
 * @file
 * Host-side configuration of incidental computing — the programming
 * model's pragma information (paper Table 1) in API form.
 *
 * The in-program half of each pragma lives in the kernel's instruction
 * stream (acset / acen / markrp / assem); the host half — memory region
 * declarations, precision bounds, backup policy and frame-buffer layout —
 * is carried by these structs, which the compiler of the paper would
 * derive from the #pragma directives.
 */

#ifndef INC_CORE_CONFIG_H
#define INC_CORE_CONFIG_H

#include <compare>
#include <cstdint>

#include "nvm/retention_policy.h"

namespace inc::core
{

/**
 * Frame buffering layout: the sensor writes captured frames into a ring
 * of input slots; each frame's output goes to a ring of output slots.
 */
struct FrameLayout
{
    std::uint32_t in_base = 0;    ///< input ring base address
    std::uint32_t in_bytes = 0;   ///< bytes per input frame
    int in_slots = 4;             ///< input ring depth

    std::uint32_t out_base = 0;   ///< output ring base address
    std::uint32_t out_bytes = 0;  ///< bytes per output frame
    int out_slots = 4;            ///< output ring depth

    std::uint32_t inSlotAddr(std::uint32_t frame) const
    {
        return in_base + (frame % static_cast<std::uint32_t>(in_slots)) *
                             in_bytes;
    }

    std::uint32_t outSlotAddr(std::uint32_t frame) const
    {
        return out_base + (frame % static_cast<std::uint32_t>(out_slots)) *
                              out_bytes;
    }

    auto operator<=>(const FrameLayout &) const = default;
};

/**
 * Equivalent of "#pragma ac incidental(src, minbits, maxbits, policy)":
 * precision bounds for approximation plus the retention-shaping policy
 * for the marked data's backup storage.
 */
struct IncidentalPragma
{
    int min_bits = 1;
    int max_bits = 8;
    nvm::RetentionPolicy policy = nvm::RetentionPolicy::full;
};

/** Incidental-controller policy knobs. */
struct ControllerConfig
{
    /** Roll forward to the newest frame on recovery (false = precise
     *  baseline NVP behaviour: resume exactly where interrupted). */
    bool roll_forward = true;

    /**
     * Staleness threshold for rolling forward: abandon the interrupted
     * frame only when the newest capture is at least this many frames
     * ahead ("resuming work on the input it was processing when power
     * failed may have lower utility ... than moving on to the newest
     * input" — the utility loss must be real; unconditional abandonment
     * would livelock under fast sensors, completing nothing).
     */
    std::uint32_t roll_forward_min_frames = 2;

    /** Adopt interrupted computations as SIMD lanes at matching PCs. */
    bool simd_adoption = true;

    /** Fill idle lanes with unprocessed buffered history frames. */
    bool history_spawn = true;

    /** Always keep all four lanes busy at full precision (the Fig. 9
     *  "4-SIMD NVP" reference design). */
    bool force_full_simd = false;

    /** Skip straight to the newest captured frame at each frame start. */
    bool process_newest_first = true;

    /** Stored-energy fraction above which surplus-powered lanes
     *  (adoption / history / recompute) may be activated. */
    double spawn_energy_frac = 0.18;

    /** Automatic recompute passes for every completed incidental frame
     *  (Table 2 "Recompute"); 0 disables. */
    int auto_recompute_times = 0;

    /** Precision floor for recompute lanes (pragma recompute minbits). */
    int recompute_min_bits = 4;

    /** Retention policy for backup images (registers / marked data). */
    nvm::RetentionPolicy backup_policy = nvm::RetentionPolicy::full;
};

} // namespace inc::core

#endif // INC_CORE_CONFIG_H
