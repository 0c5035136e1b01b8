// Descriptive statistics over a series: the MCMC diagnostics and the
// sampler's effective sample size read them, and so does the accuracy
// evaluation of Table 1 / Fig 13.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

namespace mpcgs {

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

/// Unbiased (n-1) sample variance; 0 for fewer than two points.
double variance(std::span<const double> xs);

/// Unbiased sample standard deviation.
double stdev(std::span<const double> xs);

/// Pearson product-moment correlation coefficient between two equal-length
/// series. This is the accuracy metric of §6.1 (r = 0.905 in the paper).
/// Throws std::invalid_argument on length mismatch or length < 2.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Median (copies and partially sorts); throws on empty input.
double median(std::span<const double> xs);

/// Quantile in [0,1] with linear interpolation; throws on empty input.
double quantile(std::span<const double> xs, double q);

/// Lag-k autocorrelation of a series (biased normalization, standard for
/// MCMC diagnostics).
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Effective sample size via initial-positive-sequence truncation of the
/// autocorrelation sum (Geyer 1992 style, simplified).
double effectiveSampleSize(std::span<const double> xs);

}  // namespace mpcgs
