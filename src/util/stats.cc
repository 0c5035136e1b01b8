#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace mpcgs {

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size() - 1);
}

double stdev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("pearson: length mismatch");
    if (xs.size() < 2)
        throw std::invalid_argument("pearson: need at least two points");
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    const double denom = std::sqrt(sxx * syy);
    if (denom == 0.0)
        throw std::invalid_argument("pearson: zero variance series");
    return sxy / denom;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) throw std::invalid_argument("quantile: empty input");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
    std::vector<double> v(xs.begin(), xs.end());
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
    const std::size_t n = xs.size();
    if (lag >= n || n < 2) return 0.0;
    const double m = mean(xs);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) den += (xs[i] - m) * (xs[i] - m);
    if (den == 0.0) return 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) num += (xs[i] - m) * (xs[i + lag] - m);
    return num / den;
}

double effectiveSampleSize(std::span<const double> xs) {
    const std::size_t n = xs.size();
    if (n < 4) return static_cast<double>(n);
    double sum = 0.0;
    // Sum consecutive-pair autocorrelations while the pair sum stays
    // positive (initial positive sequence estimator).
    for (std::size_t k = 1; k + 1 < n; k += 2) {
        const double pair = autocorrelation(xs, k) + autocorrelation(xs, k + 1);
        if (pair <= 0.0) break;
        sum += pair;
    }
    const double denom = 1.0 + 2.0 * sum;
    return static_cast<double>(n) / std::max(denom, 1.0);
}

}  // namespace mpcgs
