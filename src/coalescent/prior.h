// Kingman coalescent prior on genealogies (Eqs. 17-18 of Davis 2016).
//
// Under the Wright-Fisher/Kingman model with scaled population parameter
// theta = m*Ne (the paper's units), the density of the waiting time to the
// next coalescence of k lineages is
//
//   p_k(t) = (2/theta) * exp(-k(k-1) t / theta)           (Eq. 17)
//
// per ordered genealogy, so a full genealogy with intervals t_i has
//
//   P(G|theta) = (2/theta)^{n-1} exp(-sum_k k(k-1) t_k / theta)   (Eq. 18)
//
// Everything here is in log space (§5.3).
#pragma once

#include <span>

#include "phylo/tree.h"

namespace mpcgs {

/// log p_k(t) of Eq. 17: density of the specific pair coalescing at t given
/// k extant lineages.
double logCoalescentWaitDensity(int k, double t, double theta);

/// log P(G|theta) from precomputed inter-coalescent intervals (Eq. 18).
/// The sampler stores genealogy samples as interval vectors precisely so
/// that this term can be recomputed for arbitrary theta (§5.1.3).
double logCoalescentPrior(std::span<const CoalInterval> intervals, double theta);

/// log P(G|theta) for a genealogy.
double logCoalescentPrior(const Genealogy& g, double theta);

/// The single-genealogy maximizer of Eq. 18:
/// theta_hat = sum_k k(k-1) t_k / (n-1). Useful as a sanity anchor and in
/// tests (the posterior-likelihood curve of one sample peaks here).
double singleTreeThetaMle(std::span<const CoalInterval> intervals);

/// Sufficient statistic sum_k k(k-1) t_k of a genealogy.
double weightedIntervalSum(std::span<const CoalInterval> intervals);

}  // namespace mpcgs
