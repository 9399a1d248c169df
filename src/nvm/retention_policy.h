/**
 * @file
 * Retention-time-shaping policies (paper Sec. 3.2, Eq. 1-3, Fig. 5).
 *
 * Approximate backup writes each bit of an 8-bit datum with a retention
 * time that grows from the least significant bit (index 1) to the most
 * significant bit (index 8):
 *
 *   linear   : T(B) = 427*B - 426
 *   log      : T(B) = 4^(B-1) + 9
 *   parabola : T(B) = 61*B^2 + 976*B - 905
 *
 * with T in 0.1 ms units. The log policy frees the most write energy (and
 * suits noise-tolerant kernels); parabola is the most conservative for
 * kernels that degrade sharply below 4 bits; linear suits most kernels
 * (paper Sec. 3.2 and Sec. 8.6).
 */

#ifndef INC_NVM_RETENTION_POLICY_H
#define INC_NVM_RETENTION_POLICY_H

#include <array>
#include <cstdint>
#include <string>

#include "nvm/stt_model.h"

namespace inc::nvm
{

/** Retention-shaping policy selector. */
enum class RetentionPolicy
{
    full,     ///< all bits at the 1-day baseline (precise NVP backup)
    linear,   ///< Eq. 1
    log,      ///< Eq. 2
    parabola  ///< Eq. 3
};

/** Human-readable policy name. */
std::string policyName(RetentionPolicy policy);

/** Parse a policy name ("full", "linear", "log", "parabola"). */
RetentionPolicy policyFromName(const std::string &name);

/**
 * Retention time in 0.1 ms units for bit @p bit_index (1 = LSB .. 8 = MSB)
 * under @p policy.
 */
double retentionTenthMs(RetentionPolicy policy, int bit_index);

/** Same, in seconds. */
double retentionSec(RetentionPolicy policy, int bit_index);

/**
 * Highest bit index (1..8) whose shaped retention under @p policy is
 * below @p age_tenth_ms; 0 if none expired. Retention is monotonically
 * increasing in bit index, so "which bits expired" is this one cutoff.
 */
int expiredCutoff(RetentionPolicy policy, double age_tenth_ms);

/** Per-bit retention-violation counters (index 0 -> bit 1 = LSB). */
struct RetentionFailureCounts
{
    std::array<std::uint64_t, 8> violations{}; ///< expired bit events
    std::array<std::uint64_t, 8> flips{};      ///< of those, value changed

    std::uint64_t totalViolations() const;
};

/**
 * Precomputed per-policy write-energy table: energy to write one 8-bit
 * word (all eight bits at their shaped retentions) and per-bit energies,
 * derived from an SttModel. Used by the backup-energy accounting.
 */
class RetentionEnergyTable
{
  public:
    explicit RetentionEnergyTable(const SttModel &model = SttModel());

    /** Energy in fJ to write bit @p bit_index (1..8) under @p policy. */
    double bitEnergyFj(RetentionPolicy policy, int bit_index) const;

    /** Energy in fJ to write a full 8-bit word under @p policy. */
    double wordEnergyFj(RetentionPolicy policy) const;

    /** Word-energy saving of @p policy relative to the full baseline. */
    double wordSaving(RetentionPolicy policy) const;

  private:
    static constexpr int kNumPolicies = 4;
    std::array<std::array<double, 8>, kNumPolicies> bit_energy_fj_;
};

} // namespace inc::nvm

#endif // INC_NVM_RETENTION_POLICY_H
