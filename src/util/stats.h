/**
 * @file
 * Fixed-width histogram used by trace analysis and the experiment
 * harnesses.
 */

#ifndef INC_UTIL_STATS_H
#define INC_UTIL_STATS_H

#include <cstdint>
#include <vector>

namespace inc::util
{

/** Fixed-width-bin histogram over [lo, hi); out-of-range values clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, int bins);

    void add(double x);

    int bins() const { return static_cast<int>(counts_.size()); }
    std::uint64_t count(int bin) const { return counts_[bin]; }
    std::uint64_t total() const { return total_; }
    /** Left edge of @p bin. */
    double edge(int bin) const;
    double binWidth() const { return width_; }

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace inc::util

#endif // INC_UTIL_STATS_H
