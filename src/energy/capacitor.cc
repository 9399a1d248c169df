#include "energy/capacitor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace inc::energy
{

Capacitor::Capacitor(CapacitorParams params)
    : params_(params),
      energy_nj_(params.capacity_nj * params.initial_frac)
{
    if (params_.capacity_nj <= 0)
        util::fatal("Capacitor capacity must be positive");
    if (params_.efficiency <= 0 || params_.efficiency > 1)
        util::fatal("Capacitor efficiency must be in (0,1]");
    if (params_.initial_frac < 0 || params_.initial_frac > 1)
        util::fatal("Capacitor initial fraction must be in [0,1]");
}

double
Capacitor::fraction() const
{
    return energy_nj_ / params_.capacity_nj;
}

double
Capacitor::voltage() const
{
    return params_.v_full * std::sqrt(fraction());
}

double
Capacitor::step(double income_uw, double dt_ms)
{
    // uW * ms = nJ.
    double in_nj = 0.0;
    if (income_uw >= params_.min_charge_uw)
        in_nj = income_uw * dt_ms * params_.efficiency;

    const double leak_nj = params_.leak_nj_per_ms * dt_ms +
                           params_.leak_frac_per_ms * dt_ms * energy_nj_;

    double e = energy_nj_ + in_nj - leak_nj;
    double banked = in_nj;
    if (e > params_.capacity_nj) {
        total_loss_nj_ += e - params_.capacity_nj;
        banked -= e - params_.capacity_nj;
        e = params_.capacity_nj;
    }
    if (e < 0.0) {
        e = 0.0;
    }
    total_loss_nj_ += std::min(leak_nj, energy_nj_ + in_nj);
    total_income_nj_ += in_nj;
    energy_nj_ = e;
    return banked;
}

bool
Capacitor::draw(double amount_nj)
{
    if (amount_nj < 0)
        util::panic("Capacitor::draw negative amount");
    if (energy_nj_ < amount_nj)
        return false;
    energy_nj_ -= amount_nj;
    return true;
}

double
Capacitor::drain(double amount_nj)
{
    const double drained = std::min(amount_nj, energy_nj_);
    energy_nj_ -= drained;
    return drained;
}

} // namespace inc::energy
