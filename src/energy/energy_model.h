/**
 * @file
 * Per-instruction, backup and restore energy accounting.
 *
 * Calibration anchors (paper Sec. 2.1-2.2, 3.2):
 *  - the NVP runs at 1 MHz and consumes 0.209 mW at full precision, i.e.
 *    0.209 nJ per cycle on average;
 *  - the per-cycle energy splits into a bit-independent base (fetch,
 *    decode, control, clock) and a datapath part that scales with the
 *    active bitwidth; extra SIMD lanes add datapath energy but share the
 *    base (the paper's "SIMD benefits of reduced instruction fetch
 *    energy");
 *  - a full backup at 1-day retention costs ~200 nJ, so that with the
 *    watch traces backups consume 20-33 % of income energy (Sec. 3.2).
 *    Device-level STT write energies (fJ/bit) are scaled to system level
 *    by a peripheral factor covering bitline charging, drivers and
 *    charge pumps.
 */

#ifndef INC_ENERGY_ENERGY_MODEL_H
#define INC_ENERGY_ENERGY_MODEL_H

#include "isa/isa.h"
#include "nvm/retention_policy.h"

namespace inc::energy
{

/** Measured system-level constants from the paper's prototypes. */
struct SystemConstants
{
    double nvp_clock_hz = 1e6;
    double nvp_power_mw = 0.209;     ///< full-precision average
    double rf_power_mw = 89.1;       ///< transceiver @ 250 kbps
    double rf_rate_kbps = 250.0;
};

/** Parameters of the energy model. */
struct EnergyParams
{
    /** Average full-precision energy per cycle, nJ (0.209 mW @ 1 MHz). */
    double cycle_energy_nj = 0.209;

    /** Fraction of cycle energy that is bit-independent base. */
    double base_fraction = 0.4;

    /**
     * Datapath share an extra SIMD lane adds (relative to lane 0).
     * Incidental lanes reuse the fetch/decode/control path entirely and
     * add only narrow packed-datapath switching (paper Sec. 8.6: "SIMD
     * benefits of reduced instruction fetch energy").
     */
    double lane_share = 0.6;

    /** Extra datapath weight for multiplier / divider cycles. */
    double mul_factor = 1.25;
    double div_factor = 1.15;

    /** Additional NVM access energy per load / store, nJ. */
    double load_extra_nj = 0.04;
    double store_extra_nj = 0.08;

    /**
     * Device-to-system scale factor for backup NVM writes (peripheral
     * overheads); calibrated so a full-retention backup of the baseline
     * state is ~200 nJ.
     */
    double backup_peripheral_factor = 2000.0;

    /** Bits of non-approximable control state in a backup (pipeline
     *  flip-flops, PC, resume-point buffer). */
    int control_state_bits = 256;

    /** Approximable data bits per register version (16 regs x 8 bits). */
    int data_bits_per_version = 128;

    /** Restore energy as a fraction of the full backup write energy. */
    double restore_fraction = 0.3;
};

/** Energy accounting for the NVP core. */
class EnergyModel
{
  public:
    explicit EnergyModel(EnergyParams params = {},
                         nvm::SttModel stt = nvm::SttModel());

    const EnergyParams &params() const { return params_; }

    /**
     * Energy of one instruction in nJ.
     *
     * @param op     the instruction's opcode
     * @param main_bits  precision of lane 0 (1..8)
     * @param lane_bits_sum  sum of active incidental lanes' bitwidths
     *                       (0 when no SIMD lanes are active)
     * @param store_policy   retention policy of the stored-to region
     *                       (stores only; discounts approximate writes)
     */
    double instructionEnergyNj(
        isa::Op op, int main_bits, int lane_bits_sum = 0,
        nvm::RetentionPolicy store_policy =
            nvm::RetentionPolicy::full) const;

    /**
     * The largest instructionEnergyNj() over every opcode, main_bits
     * 1..8, 1..@p max_lanes active lanes of 8 bits each (lane_bits_sum
     * (lanes - 1) x 8) and every store policy.
     *
     * Only the corners bits {1, 8} x lanes {1, max_lanes} are evaluated,
     * and the result is still exact. For one op and policy the energy
     * is (base + k * (bits + lane_share * lane_bits_sum) / 8) * cycles
     * + extra. Every rounded step of that expression is monotone in its
     * one varying operand, in a direction the sign of a constant fixes,
     * so the maximum over the box lies at a corner.
     */
    double maxInstructionEnergyNj(int max_lanes) const;

    /**
     * Bit-independent fetch/decode/control component of one
     * instruction's energy, nJ — the `base` term of
     * instructionEnergyNj. Lets the observability ledger split
     * consumption into fetch vs datapath without re-deriving the
     * model's internals.
     */
    double instructionBaseEnergyNj(isa::Op op) const;

    /** Idle (clock-gated but on) energy per cycle, nJ. */
    double idleCycleEnergyNj() const;

    /**
     * Backup energy in nJ with @p versions register versions under
     * @p policy for the approximable data bits.
     */
    double backupEnergyNj(nvm::RetentionPolicy policy, int versions) const;

    /** Restore energy in nJ (always full-fidelity reads). */
    double restoreEnergyNj(int versions) const;

    /** Energy of merging @p bytes through the versioned memory FSM. */
    double assembleEnergyNj(int bytes) const;

  private:
    EnergyParams params_;
    nvm::RetentionEnergyTable table_;
    double base_nj_;
    double datapath_nj_;
};

} // namespace inc::energy

#endif // INC_ENERGY_ENERGY_MODEL_H
