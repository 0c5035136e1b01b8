#include "coalescent/prior.h"

#include <cmath>

#include "util/error.h"

namespace mpcgs {

double logCoalescentWaitDensity(int k, double t, double theta) {
    require(k >= 2, "coalescent density needs k >= 2");
    require(t >= 0.0, "coalescent density needs t >= 0");
    require(theta > 0.0, "coalescent density needs theta > 0");
    const double kk = static_cast<double>(k) * (k - 1);
    return std::log(2.0 / theta) - kk * t / theta;
}

double weightedIntervalSum(std::span<const CoalInterval> intervals) {
    double acc = 0.0;
    for (const auto& iv : intervals) {
        const double kk = static_cast<double>(iv.lineages) * (iv.lineages - 1);
        acc += kk * iv.length();
    }
    return acc;
}

double logCoalescentPrior(std::span<const CoalInterval> intervals, double theta) {
    require(theta > 0.0, "coalescent prior needs theta > 0");
    const double events = static_cast<double>(intervals.size());
    return events * std::log(2.0 / theta) - weightedIntervalSum(intervals) / theta;
}

double logCoalescentPrior(const Genealogy& g, double theta) {
    const auto ivs = g.intervals();
    return logCoalescentPrior(std::span<const CoalInterval>(ivs), theta);
}

double singleTreeThetaMle(std::span<const CoalInterval> intervals) {
    require(!intervals.empty(), "theta MLE needs at least one interval");
    return weightedIntervalSum(intervals) / static_cast<double>(intervals.size());
}

}  // namespace mpcgs
