/**
 * @file
 * Output-quality metrics: mean squared error and peak signal-to-noise
 * ratio against an 8-bit precise baseline (paper Sec. 8.1). The paper's
 * MATLAB quality analysis is replaced by these in-library equivalents.
 */

#ifndef INC_APPROX_QUALITY_H
#define INC_APPROX_QUALITY_H

#include <cstdint>
#include <vector>

namespace inc::approx
{

/** MSE between two equal-length byte sequences. */
double mse(const std::vector<std::uint8_t> &a,
           const std::vector<std::uint8_t> &b);

/**
 * PSNR in dB for 8-bit data: 10*log10(255^2 / mse). Identical outputs
 * report +inf, returned as kPsnrCap.
 */
double psnrFromMse(double mse_value);

/** PSNR cap reported for exact matches, dB. */
constexpr double kPsnrCap = 99.0;

double psnr(const std::vector<std::uint8_t> &a,
            const std::vector<std::uint8_t> &b);

/**
 * MSE over the positions where @p mask is non-zero only. Incidental
 * outputs may be partial; quality is scored over the pixels actually
 * produced while completeness is reported separately as coverage.
 * Returns 0 when the mask selects nothing.
 */
double maskedMse(const std::vector<std::uint8_t> &a,
                 const std::vector<std::uint8_t> &b,
                 const std::vector<std::uint8_t> &mask);

/** Quality record for one output frame. */
struct QualityScore
{
    double mse = 0.0;
    double psnr = kPsnrCap;
    double coverage = 1.0; ///< fraction of output pixels actually written
};

} // namespace inc::approx

#endif // INC_APPROX_QUALITY_H
