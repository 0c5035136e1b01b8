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
