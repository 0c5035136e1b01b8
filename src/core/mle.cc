#include "core/mle.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace mpcgs {

MleResult maximizeThetaGradient(const ThetaLikelihood& rl, double thetaStart,
                                const GradientAscentOptions& opts, ThreadPool* pool) {
    require(thetaStart > 0.0, "maximizeThetaGradient: theta must be positive");
    MleResult out;
    double theta = thetaStart;
    double logL = rl.logL(theta, pool);

    for (int it = 0; it < opts.maxIterations; ++it) {
        ++out.iterations;
        // Central finite-difference gradient (Alg 2 line 5), with the step
        // scaled by theta so the estimate stays sane across magnitudes.
        const double d = opts.delta * std::max(theta, 1e-8);
        const double lo = std::max(theta - d, theta * 0.5);
        const double hi = theta + d;
        double gradient = (rl.logL(hi, pool) - rl.logL(lo, pool)) / (hi - lo);

        // Initial step proportional to the gradient.
        double step = gradient * std::max(theta * theta, 1e-12);

        // Halve while the step leaves the domain or the band, or decreases
        // L (Alg 2 lines 6-8); a step below the floor ends the search.
        double thetaNext = theta + step;
        double logLNext = -std::numeric_limits<double>::infinity();
        bool uphill = false;
        for (int halvings = 0;
             halvings < opts.maxHalvings && !(std::fabs(step) < opts.minStep * theta);
             ++halvings) {
            if (thetaNext > 0.0 && thetaNext >= theta / opts.maxStepFactor &&
                thetaNext <= theta * opts.maxStepFactor) {
                logLNext = rl.logL(thetaNext, pool);
                if (logLNext >= logL) {
                    uphill = true;
                    break;
                }
            }
            step *= 0.5;
            thetaNext = theta + step;
        }
        if (!uphill) {
            // No uphill step found: already at (numerical) maximum.
            out.converged = true;
            break;
        }

        const double moved = std::fabs(thetaNext - theta);
        theta = thetaNext;
        logL = logLNext;
        if (moved < opts.epsilon * std::max(1.0, theta)) {
            out.converged = true;
            break;
        }
    }
    out.theta = theta;
    out.logL = logL;
    return out;
}

MleResult maximizeThetaGolden(const ThetaLikelihood& rl, double lo, double hi, double tol,
                              ThreadPool* pool) {
    require(lo > 0.0 && hi > lo, "maximizeThetaGolden: bad bracket");
    // Work in log-theta so the search is scale-free.
    const GoldenSection g = goldenSectionMax(
        [&](double x) { return rl.logL(std::exp(x), pool); }, std::log(lo), std::log(hi), tol,
        501);
    MleResult out;
    out.iterations = g.iterations;
    out.theta = std::exp(0.5 * (g.lo + g.hi));
    out.logL = rl.logL(out.theta, pool);
    out.converged = (g.hi - g.lo) <= tol;
    return out;
}

MleResult maximizeTheta(const ThetaLikelihood& rl, double thetaStart, ThreadPool* pool,
                        const GradientAscentOptions& opts) {
    MleResult grad = maximizeThetaGradient(rl, thetaStart, opts, pool);
    if (grad.converged) return grad;
    // Fallback: bracket a few decades around the start value.
    MleResult golden =
        maximizeThetaGolden(rl, thetaStart * 1e-3, thetaStart * 1e3, 1e-7, pool);
    return golden.logL > grad.logL ? golden : grad;
}

}  // namespace mpcgs
