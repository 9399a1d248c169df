#include "nvm/retention_policy.h"

#include <cmath>

#include "util/logging.h"

namespace inc::nvm
{

namespace
{
/** 1 day in 0.1 ms units: the full-retention baseline. */
constexpr double kFullRetentionTenthMs = 86400.0 * 1e4;
} // namespace

std::string
policyName(RetentionPolicy policy)
{
    switch (policy) {
      case RetentionPolicy::full: return "full";
      case RetentionPolicy::linear: return "linear";
      case RetentionPolicy::log: return "log";
      case RetentionPolicy::parabola: return "parabola";
    }
    return "unknown";
}

RetentionPolicy
policyFromName(const std::string &name)
{
    if (name == "full")
        return RetentionPolicy::full;
    if (name == "linear")
        return RetentionPolicy::linear;
    if (name == "log")
        return RetentionPolicy::log;
    if (name == "parabola")
        return RetentionPolicy::parabola;
    util::fatal("unknown retention policy '%s'", name.c_str());
}

double
retentionTenthMs(RetentionPolicy policy, int bit_index)
{
    if (bit_index < 1 || bit_index > 8)
        util::panic("retention bit index must be 1..8, got %d", bit_index);
    const double b = static_cast<double>(bit_index);
    switch (policy) {
      case RetentionPolicy::full:
        return kFullRetentionTenthMs;
      case RetentionPolicy::linear:
        return 427.0 * b - 426.0;                      // Eq. 1
      case RetentionPolicy::log:
        return std::pow(4.0, b - 1.0) + 9.0;           // Eq. 2
      case RetentionPolicy::parabola:
        return 61.0 * b * b + 976.0 * b - 905.0;       // Eq. 3
    }
    util::panic("unhandled retention policy");
}

double
retentionSec(RetentionPolicy policy, int bit_index)
{
    return retentionTenthMs(policy, bit_index) * 1e-4;
}

int
expiredCutoff(RetentionPolicy policy, double age_tenth_ms)
{
    if (policy == RetentionPolicy::full)
        return age_tenth_ms >= retentionTenthMs(policy, 1) ? 8 : 0;
    int cutoff = 0;
    for (int b = 1; b <= 8; ++b) {
        if (retentionTenthMs(policy, b) < age_tenth_ms)
            cutoff = b;
        else
            break; // retention is monotone in bit index
    }
    return cutoff;
}

std::uint64_t
RetentionFailureCounts::totalViolations() const
{
    std::uint64_t sum = 0;
    for (auto v : violations)
        sum += v;
    return sum;
}

RetentionEnergyTable::RetentionEnergyTable(const SttModel &model)
{
    const RetentionPolicy policies[kNumPolicies] = {
        RetentionPolicy::full, RetentionPolicy::linear,
        RetentionPolicy::log, RetentionPolicy::parabola};
    for (int p = 0; p < kNumPolicies; ++p) {
        for (int b = 1; b <= 8; ++b) {
            bit_energy_fj_[p][b - 1] =
                model.writeEnergyFj(retentionSec(policies[p], b));
        }
    }
}

double
RetentionEnergyTable::bitEnergyFj(RetentionPolicy policy,
                                  int bit_index) const
{
    if (bit_index < 1 || bit_index > 8)
        util::panic("bit index must be 1..8, got %d", bit_index);
    return bit_energy_fj_[static_cast<int>(policy)][bit_index - 1];
}

double
RetentionEnergyTable::wordEnergyFj(RetentionPolicy policy) const
{
    double sum = 0.0;
    for (int b = 1; b <= 8; ++b)
        sum += bitEnergyFj(policy, b);
    return sum;
}

double
RetentionEnergyTable::wordSaving(RetentionPolicy policy) const
{
    const double base = wordEnergyFj(RetentionPolicy::full);
    return 1.0 - wordEnergyFj(policy) / base;
}

} // namespace inc::nvm
