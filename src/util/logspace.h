// Log-space arithmetic: underflow-safe probability computations.
//
// Reproduces §5.3 of Davis (2016): every quantity at risk of underflow is
// stored as its natural logarithm; addition of probabilities is performed
// with the max-factored identity of Eq. (32),
//
//   ln(x + y) = ln(e^{a-k} + e^{b-k}) + k,   k = max(a, b),
//
// which keeps at least the larger operand exactly representable.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace mpcgs {

/// Natural log of the sum of two probabilities given their logs.
///
/// Handles -inf (log of zero) operands exactly: logAdd(-inf, b) == b.
inline double logAdd(double a, double b) {
    if (a == -std::numeric_limits<double>::infinity()) return b;
    if (b == -std::numeric_limits<double>::infinity()) return a;
    const double k = (a > b) ? a : b;
    return std::log(std::exp(a - k) + std::exp(b - k)) + k;
}

/// Stable log-sum-exp over a span of log-values. Empty input -> -inf.
inline double logSumExp(std::span<const double> xs) {
    if (xs.empty()) return -std::numeric_limits<double>::infinity();
    double k = -std::numeric_limits<double>::infinity();
    for (double x : xs)
        if (x > k) k = x;
    if (k == -std::numeric_limits<double>::infinity()) return k;
    double acc = 0.0;
    for (double x : xs) acc += std::exp(x - k);
    return std::log(acc) + k;
}

/// Normalize a vector of log-weights into linear-space probabilities that
/// sum to 1 (max-normalized before exponentiation; §5.2.3).
/// Returns the log of the normalizing constant (logSumExp of the input).
double logNormalize(std::span<const double> logWeights, std::vector<double>& probsOut);

}  // namespace mpcgs
