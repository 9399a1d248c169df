#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace inc::util
{

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), width_((hi - lo) / bins),
      counts_(static_cast<size_t>(bins), 0)
{
    if (bins <= 0 || hi <= lo)
        panic("Histogram requires bins > 0 and hi > lo");
}

void
Histogram::add(double x)
{
    int bin = static_cast<int>((x - lo_) / width_);
    bin = std::clamp(bin, 0, static_cast<int>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
    ++total_;
}

double
Histogram::edge(int bin) const
{
    return lo_ + bin * width_;
}

} // namespace inc::util
