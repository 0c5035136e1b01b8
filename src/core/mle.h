// Maximum likelihood estimation of theta from the relative likelihood
// curve (§5.1.5, Algorithm 2), plus a derivative-free golden-section
// maximizer used as a cross-check and fallback. The maximizers take any
// ThetaLikelihood, so the same Algorithm 2 drives the single-locus Eq. 26
// curve and the multi-locus pooled curve (core/locus_problem.h).
#pragma once

#include <limits>

#include "core/posterior.h"
#include "par/thread_pool.h"

namespace mpcgs {

struct GradientAscentOptions {
    double delta = 1e-4;        ///< finite-difference step (Alg 2's small delta)
    double epsilon = 1e-6;      ///< convergence threshold on |theta - theta_next|
    int maxIterations = 200;
    int maxHalvings = 60;       ///< line-search halvings per step
    /// A trial point outside [theta/f, theta*f] is halved without an
    /// evaluation, as a non-positive one is. The default never caps.
    double maxStepFactor = std::numeric_limits<double>::infinity();
    /// Before each trial the line search stops as converged once
    /// |step| < minStep * theta. The default never stops early.
    double minStep = 0.0;
};

struct MleResult {
    double theta = 0.0;
    double logL = 0.0;      ///< log relative likelihood at the maximum
    int iterations = 0;
    bool converged = false;
};

/// The final bracket of a golden-section search and f at its two interior
/// points, x1 = hi - r (hi - lo) and x2 = lo + r (hi - lo), r = (sqrt 5 - 1) / 2.
struct GoldenSection {
    double lo = 0.0;
    double hi = 0.0;
    double f1 = 0.0;  ///< f(x1)
    double f2 = 0.0;  ///< f(x2)
    int iterations = 0;
};

/// Golden-section maximization of f over [lo, hi]: the bracket shrinks by
/// r per iteration while it is wider than `tol`, at most `maxIterations`
/// times, with one evaluation of f per iteration after the first two.
template <class F>
GoldenSection goldenSectionMax(F&& f, double lo, double hi, double tol, int maxIterations) {
    constexpr double kInvPhi = 0.6180339887498949;
    GoldenSection g{lo, hi};
    double x1 = hi - kInvPhi * (hi - lo);
    double x2 = lo + kInvPhi * (hi - lo);
    g.f1 = f(x1);
    g.f2 = f(x2);
    for (; g.iterations < maxIterations && g.hi - g.lo > tol; ++g.iterations) {
        if (g.f1 < g.f2) {
            g.lo = x1;
            x1 = x2;
            g.f1 = g.f2;
            x2 = g.lo + kInvPhi * (g.hi - g.lo);
            g.f2 = f(x2);
        } else {
            g.hi = x2;
            x2 = x1;
            g.f2 = g.f1;
            x1 = g.hi - kInvPhi * (g.hi - g.lo);
            g.f1 = f(x1);
        }
    }
    return g;
}

/// Algorithm 2: iterative gradient ascent from theta0 with step halving
/// whenever the step would decrease L, push theta non-positive or leave
/// the maxStepFactor band.
MleResult maximizeThetaGradient(const ThetaLikelihood& rl, double thetaStart,
                                const GradientAscentOptions& opts = {},
                                ThreadPool* pool = nullptr);

/// Golden-section maximization of log L on [lo, hi] (unimodality holds for
/// Eq. 26 curves in practice).
MleResult maximizeThetaGolden(const ThetaLikelihood& rl, double lo, double hi,
                              double tol = 1e-7, ThreadPool* pool = nullptr);

/// Robust driver: gradient ascent per Algorithm 2 with `opts`, falling
/// back to a bracketed golden-section search when ascent fails to converge.
MleResult maximizeTheta(const ThetaLikelihood& rl, double thetaStart,
                        ThreadPool* pool = nullptr, const GradientAscentOptions& opts = {});

}  // namespace mpcgs
