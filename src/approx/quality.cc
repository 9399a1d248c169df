#include "approx/quality.h"

#include <cmath>

#include "util/logging.h"

namespace inc::approx
{

double
mse(const std::vector<std::uint8_t> &a, const std::vector<std::uint8_t> &b)
{
    if (a.size() != b.size())
        util::panic("mse: size mismatch (%zu vs %zu)", a.size(), b.size());
    if (a.empty())
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) -
                         static_cast<double>(b[i]);
        sum += d * d;
    }
    return sum / static_cast<double>(a.size());
}

double
psnrFromMse(double mse_value)
{
    if (mse_value <= 0.0)
        return kPsnrCap;
    const double v = 10.0 * std::log10(255.0 * 255.0 / mse_value);
    return v > kPsnrCap ? kPsnrCap : v;
}

double
psnr(const std::vector<std::uint8_t> &a, const std::vector<std::uint8_t> &b)
{
    return psnrFromMse(mse(a, b));
}

double
maskedMse(const std::vector<std::uint8_t> &a,
          const std::vector<std::uint8_t> &b,
          const std::vector<std::uint8_t> &mask)
{
    if (a.size() != b.size() || a.size() != mask.size())
        util::panic("maskedMse: size mismatch");
    double sum = 0.0;
    std::size_t n = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!mask[i])
            continue;
        const double d = static_cast<double>(a[i]) -
                         static_cast<double>(b[i]);
        sum += d * d;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

} // namespace inc::approx
