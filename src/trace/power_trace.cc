#include "trace/power_trace.h"

#include <algorithm>
#include <numeric>

#include "util/csv.h"
#include "util/flags.h"
#include "util/fs.h"
#include "util/logging.h"

namespace inc::trace
{

PowerTrace::PowerTrace(std::vector<double> samples_uw, std::string name)
    : samples_(std::move(samples_uw)), name_(std::move(name))
{
    for (double &s : samples_)
        s = std::max(0.0, s);
}

double
PowerTrace::at(std::size_t i) const
{
    if (samples_.empty())
        return 0.0;
    if (i >= samples_.size())
        i = samples_.size() - 1;
    return samples_[i];
}

double
PowerTrace::durationSec() const
{
    return static_cast<double>(samples_.size()) * kSamplePeriodSec;
}

double
PowerTrace::meanPower() const
{
    if (samples_.empty())
        return 0.0;
    const double sum =
        std::accumulate(samples_.begin(), samples_.end(), 0.0);
    return sum / static_cast<double>(samples_.size());
}

double
PowerTrace::peakPower() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

double
PowerTrace::totalEnergyUj() const
{
    // uW * s = uJ
    double e = 0.0;
    for (double s : samples_)
        e += s * kSamplePeriodSec;
    return e;
}

PowerTrace
PowerTrace::scaled(double factor) const
{
    if (factor < 0)
        util::fatal("PowerTrace::scaled factor must be non-negative");
    std::vector<double> samples = samples_;
    for (double &s : samples)
        s *= factor;
    return PowerTrace(std::move(samples), name_);
}

PowerTrace
PowerTrace::resampled(double src_period_sec) const
{
    if (src_period_sec <= 0)
        util::fatal("PowerTrace::resampled needs a positive period");
    if (samples_.empty())
        return {};
    const double duration =
        static_cast<double>(samples_.size()) * src_period_sec;
    const auto out_len =
        static_cast<std::size_t>(duration / kSamplePeriodSec);
    std::vector<double> out;
    out.reserve(out_len);
    for (std::size_t i = 0; i < out_len; ++i) {
        const double t =
            static_cast<double>(i) * kSamplePeriodSec / src_period_sec;
        const auto lo = static_cast<std::size_t>(t);
        const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
        const double frac = t - static_cast<double>(lo);
        out.push_back(samples_[std::min(lo, samples_.size() - 1)] *
                          (1.0 - frac) +
                      samples_[hi] * frac);
    }
    return PowerTrace(std::move(out), name_);
}

std::string
PowerTrace::toCsv() const
{
    util::CsvWriter w;
    w.setHeader({"power_uw"});
    for (double s : samples_)
        w.addRow({util::format("%.3f", s)});
    return w.render();
}

bool
PowerTrace::saveCsv(const std::string &path) const
{
    return util::writeFile(path, toCsv());
}

PowerTrace
PowerTrace::loadCsv(const std::string &path, const std::string &name,
                    std::string *error)
{
    const auto rows = util::readCsv(path);
    std::vector<double> samples;
    samples.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        double v = 0.0;
        if (rows[i].size() == 1 && util::parseNumber(rows[i][0], &v)) {
            samples.push_back(v);
        } else if (i > 0) { // row 0 may be a header
            if (error) {
                std::string row;
                for (const std::string &cell : rows[i])
                    row += (row.empty() ? "" : ",") + cell;
                *error = util::format("%s row %zu: want one number, "
                                      "got '%s'",
                                      path.c_str(), i + 1, row.c_str());
            }
            return {};
        }
    }
    if (samples.empty() && error)
        *error = path + ": no samples (missing or empty file?)";
    return PowerTrace(std::move(samples), name);
}

} // namespace inc::trace
