/**
 * @file
 * Harvested-power traces.
 *
 * A PowerTrace is a sequence of instantaneous harvested power samples in
 * microwatts, sampled every 0.1 ms — the same representation the paper's
 * system-level simulator consumes (Sec. 7). Traces can be synthesized
 * (trace_generator.h) or loaded from CSV captures.
 */

#ifndef INC_TRACE_POWER_TRACE_H
#define INC_TRACE_POWER_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace inc::trace
{

/** Duration of one trace sample in seconds (0.1 ms). */
constexpr double kSamplePeriodSec = 1e-4;

/** Same, in the paper's "0.1ms" display unit. */
constexpr double kSamplePeriodTenthMs = 1.0;

/** A harvested-power trace: microwatt samples every 0.1 ms. */
class PowerTrace
{
  public:
    PowerTrace() = default;
    explicit PowerTrace(std::vector<double> samples_uw,
                        std::string name = "");

    /** Number of 0.1 ms samples. */
    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /** Power in uW at sample @p i (clamped to the last sample). */
    double at(std::size_t i) const;

    /** Total trace duration in seconds. */
    double durationSec() const;

    /** Mean power in uW. */
    double meanPower() const;

    /** Peak power in uW. */
    double peakPower() const;

    /** Total harvestable energy over the trace in microjoules. */
    double totalEnergyUj() const;

    const std::vector<double> &samples() const { return samples_; }
    const std::string &name() const { return name_; }

    /** Copy with every sample multiplied by @p factor (harvester
     *  strength calibration). */
    PowerTrace scaled(double factor) const;

    /**
     * Copy resampled from a capture period of @p src_period_sec to the
     * library's 0.1 ms grid (linear interpolation). Use when loading
     * external captures taken at other rates.
     */
    PowerTrace resampled(double src_period_sec) const;

    /** Save as a one-column CSV ("power_uw" header). */
    bool saveCsv(const std::string &path) const;

    /** The one-column CSV form ("power_uw" header) saveCsv writes. */
    std::string toCsv() const;

    /**
     * Load from a one-column CSV: an optional header row, then one
     * whole finite number per row (util::parseNumber). Returns an empty
     * trace on error, with the reason, naming the file and the row, in
     * @p error.
     */
    static PowerTrace loadCsv(const std::string &path,
                              const std::string &name = "",
                              std::string *error = nullptr);

  private:
    std::vector<double> samples_;
    std::string name_;
};

} // namespace inc::trace

#endif // INC_TRACE_POWER_TRACE_H
