// Approximate support (confidence) intervals for theta from the relative
// likelihood curve — the standard companion output of LAMARC's maximum
// likelihood estimates (Kuhner 2006). By the asymptotic chi-square
// argument, the (1-alpha) support interval is the set of theta whose
// log-likelihood lies within chi2_{1,1-alpha}/2 of the maximum
// (1.92 units for 95%). Works on any ThetaLikelihood — the single-locus
// Eq. 26 curve or the multi-locus pooled curve.
#pragma once

#include "core/posterior.h"
#include "par/thread_pool.h"

namespace mpcgs {

struct SupportInterval {
    double mle = 0.0;      ///< curve maximizer
    double lower = 0.0;    ///< lower crossing of logL(mle) - drop
    double upper = 0.0;    ///< upper crossing
    double logLAtMle = 0.0;
    bool lowerBounded = true;  ///< false if the drop is never crossed below
    bool upperBounded = true;  ///< false if the drop is never crossed above
};

/// Compute the support interval around `mleTheta` on the Eq. 26 curve.
/// `drop` defaults to 1.92 (95% for one parameter). Crossings are located
/// by bisection on each side until the bracket is narrower than `tol` in
/// log theta; the search expands geometrically up to `maxFactor` away from
/// the MLE before declaring the side unbounded.
SupportInterval supportInterval(const ThetaLikelihood& rl, double mleTheta,
                                double drop = 1.92, double maxFactor = 1e4,
                                ThreadPool* pool = nullptr, double tol = 1e-10);

}  // namespace mpcgs
