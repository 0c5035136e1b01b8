// Exponential-growth coalescent — the "parameters other than theta"
// extension the thesis lists as future work (§7).
//
// The population's scaled size at backward time t is theta(t) =
// theta0 * exp(-g t): positive g means the population has been growing
// toward the present. With k lineages the pair-coalescence rate at time t
// is 2 exp(g t) / theta0, so the labeled-genealogy density generalizing
// Eq. 18 is
//
//   log P(G | theta0, g) = sum_events [ log(2/theta0) + g t_e ]
//                        - sum_intervals k(k-1) (e^{g b} - e^{g a}) / (g theta0),
//
// with the g -> 0 limit recovering the constant-size prior. The GMH
// sampler needs no new proposal kernel for this model: the pi/q weights
// (DESIGN.md §1) stay exact for any positive proposal density, so the
// constant-size neighbourhood kernel doubles as the proposal for the
// growth posterior.
#pragma once

#include <span>

#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Parameters of the growth model.
struct GrowthParams {
    double theta = 1.0;  ///< present-day scaled population size
    double growth = 0.0; ///< exponential growth rate g (may be negative)
};

/// log P(G | theta, g) from inter-coalescent intervals (most recent first;
/// each interval's `end` is a coalescent event).
double logGrowthCoalescentPrior(std::span<const CoalInterval> intervals,
                                const GrowthParams& p);

double logGrowthCoalescentPrior(const Genealogy& g, const GrowthParams& p);

/// Simulate a genealogy under the growth coalescent via the time transform
/// of the inhomogeneous exponential clock.
Genealogy simulateGrowthCoalescent(int nTips, const GrowthParams& p, Rng& rng);

}  // namespace mpcgs
