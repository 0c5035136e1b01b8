// Streaming mean/variance accumulator (Welford) for the moment and
// recovery checks of the test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace mpcgs {

class RunningStats {
  public:
    void add(double x) {
        ++n_;
        const double d = x - mean_;
        mean_ += d / static_cast<double>(n_);
        m2_ += d * (x - mean_);
        if (x < min_ || n_ == 1) min_ = x;
        if (x > max_ || n_ == 1) max_ = x;
    }
    std::size_t count() const { return n_; }
    double mean() const { return mean_; }
    double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
    double stdev() const { return std::sqrt(variance()); }
    double min() const { return min_; }
    double max() const { return max_; }

    /// Merge another accumulator (parallel reduction support).
    void merge(const RunningStats& o) {
        if (o.n_ == 0) return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        const auto n = n_ + o.n_;
        const double d = o.mean_ - mean_;
        const double nd = static_cast<double>(n);
        m2_ += o.m2_ + d * d * static_cast<double>(n_) * static_cast<double>(o.n_) / nd;
        mean_ += d * static_cast<double>(o.n_) / nd;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
        n_ = n;
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace mpcgs
