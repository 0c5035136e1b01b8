#include "core/support_interval.h"

#include <cmath>

#include "util/error.h"

namespace mpcgs {
namespace {

/// Bisection for the theta in [inside, outside] (by log-theta) where the
/// curve crosses `target`, assuming logL(inside) >= target >= logL(outside),
/// down to a bracket `tol` wide.
double bisectCrossing(const ThetaLikelihood& rl, double target, double inside,
                      double outside, double tol, ThreadPool* pool) {
    double lo = std::log(inside), hi = std::log(outside);
    for (int it = 0; it < 100 && std::fabs(hi - lo) > tol; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (rl.logL(std::exp(mid), pool) >= target)
            lo = mid;
        else
            hi = mid;
    }
    return std::exp(0.5 * (lo + hi));
}

}  // namespace

SupportInterval supportInterval(const ThetaLikelihood& rl, double mleTheta, double drop,
                                double maxFactor, ThreadPool* pool, double tol) {
    require(mleTheta > 0.0, "supportInterval: mle must be positive");
    require(drop > 0.0, "supportInterval: drop must be positive");
    SupportInterval out;
    out.mle = mleTheta;
    out.logLAtMle = rl.logL(mleTheta, pool);
    const double target = out.logLAtMle - drop;

    // Walk outward geometrically until the curve falls below the target,
    // then bisect back to the crossing.
    auto findSide = [&](bool upperSide, bool& bounded) {
        double inside = mleTheta;
        double factor = 1.5;
        while (factor <= maxFactor) {
            const double probe = upperSide ? mleTheta * factor : mleTheta / factor;
            if (rl.logL(probe, pool) < target)
                return bisectCrossing(rl, target, inside, probe, tol, pool);
            inside = probe;
            factor *= 2.0;
        }
        bounded = false;
        return upperSide ? mleTheta * maxFactor : mleTheta / maxFactor;
    };

    out.lower = findSide(false, out.lowerBounded);
    out.upper = findSide(true, out.upperBounded);
    return out;
}

}  // namespace mpcgs
