/**
 * @file
 * Capacitor and harvesting front-end model (paper Sec. 2.2, refs [24,30]).
 *
 * The NVP execution paradigm uses a small on-chip capacitor — just enough
 * to guarantee the backup operation and stabilize cycle-level voltages —
 * instead of the large energy-storage device of wait-compute MCUs. The
 * model tracks stored energy directly (E = C*V^2/2 conversions are
 * provided for voltage-threshold reasoning), applies the AC-DC front-end
 * conversion efficiency to income, and drains leakage continuously.
 *
 * The same class models the wait-compute baseline's large storage device,
 * whose higher capacitance brings proportionally higher leakage and a
 * minimum charging current below which income is wasted (paper cites the
 * GZ115's 20 uA floor).
 */

#ifndef INC_ENERGY_CAPACITOR_H
#define INC_ENERGY_CAPACITOR_H

namespace inc::energy
{

/** Capacitor + front-end parameters. */
struct CapacitorParams
{
    double capacity_nj = 2000.0;   ///< usable energy at full charge
    double initial_frac = 0.0;     ///< starting state of charge
    double efficiency = 0.70;      ///< AC-DC + regulation efficiency
    double leak_nj_per_ms = 0.5;   ///< fixed leakage
    double leak_frac_per_ms = 0.0; ///< proportional leakage (big caps)
    /** AC-DC rectifier dropout: income below this is wasted. Idle-rest
     *  trickle (a few uW) falls under it, so long rests are genuine
     *  outages rather than slow-charge periods. */
    double min_charge_uw = 8.0;
    double v_full = 2.5;           ///< volts at full charge
};

/** Energy-domain capacitor model. */
class Capacitor
{
  public:
    explicit Capacitor(CapacitorParams params = {});

    const CapacitorParams &params() const { return params_; }

    /** Stored energy, nJ. */
    double energyNj() const { return energy_nj_; }

    /** Stored-energy fraction of capacity, [0,1]. */
    double fraction() const;

    /** Terminal voltage (E = C V^2 / 2 scaling from v_full). */
    double voltage() const;

    /**
     * Advance @p dt_ms with harvested input power @p income_uw; applies
     * efficiency, the minimum-charge floor, and leakage. Returns the
     * energy actually banked (after losses), nJ.
     */
    double step(double income_uw, double dt_ms);

    /**
     * Draw @p amount_nj for computation or backup. Returns false (and
     * leaves the charge unchanged) if insufficient.
     */
    bool draw(double amount_nj);

    /**
     * Unconditional drain (brown-out modeling); clamps at zero. Returns
     * the energy actually removed, which is less than @p amount_nj when
     * the charge ran out — callers tracking a conservation ledger
     * account the shortfall as unfunded demand.
     */
    double drain(double amount_nj);

    /** Cumulative income energy banked so far, nJ. */
    double totalIncomeNj() const { return total_income_nj_; }

    /** Cumulative energy lost to leakage and charge clamping, nJ. */
    double totalLossNj() const { return total_loss_nj_; }

  private:
    CapacitorParams params_;
    double energy_nj_;
    double total_income_nj_ = 0.0;
    double total_loss_nj_ = 0.0;
};

} // namespace inc::energy

#endif // INC_ENERGY_CAPACITOR_H
