// Felsenstein pruning data likelihood P(D|G) (Eqs. 19-22; §5.2.2).
//
// For each site (pattern), a post-order traversal propagates conditional
// likelihood vectors L_n(X) from the tips to the root:
//
//   L_n(X) = [sum_Y P_XY(t_nj) L_j(Y)] * [sum_Y P_XY(t_nk) L_k(Y)]   (Eq. 19)
//   L_i(G) = sum_X pi_X L_root(X)                                    (Eq. 21)
//   log P(D|G) = sum_i log L_i(G)                                    (Eq. 22)
//
// (Eq. 22 prints a plain sum; the product over independent sites is a sum
// of logs, which is also what the reference implementation computes.)
//
// logLikelihood recomputes every node, the paper's GPU choice (§5.2.2: full
// recomputation beat caching there). On the CPU every MCMC chain instead
// scores a proposal over a kept evaluation of its current state
// (LikelihoodEngine::evaluateRegion, see core/genealogy_problem.h), which
// equals a full evaluation bitwise through the same kernels.
#pragma once

#include <memory>
#include <vector>

#include "lik/engine.h"
#include "lik/rate_model.h"
#include "lik/site_pattern.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "seq/subst_model.h"

namespace mpcgs {

class DataLikelihood {
  public:
    /// Holds a reference-independent copy of the pattern data and model.
    DataLikelihood(const Alignment& aln, const SubstModel& model, bool compressPatterns = true);

    /// With among-site rate variation: the site likelihood averages the
    /// pruning likelihood over the rate categories (each category scales
    /// every branch length by its rate).
    DataLikelihood(const Alignment& aln, const SubstModel& model, RateCategories rates,
                   bool compressPatterns = true);

    /// log P(D|G) via the pattern-major engine. Parallel over site-pattern
    /// blocks when a pool is supplied — the data-likelihood kernel of
    /// §5.2.2 (one logical thread per site). Thread-safe, and bitwise
    /// deterministic across thread counts (the block partition depends only
    /// on the problem shape).
    double logLikelihood(const Genealogy& g, ThreadPool* pool = nullptr) const;

    /// log P(D|G) via the original scalar one-pattern-at-a-time pruning.
    /// Kept as the numerical reference for the engine agreement tests and
    /// the kernel benchmarks; not a hot path.
    double logLikelihoodReference(const Genealogy& g) const;

    /// Per-pattern log-likelihoods (diagnostics/tests; scalar reference
    /// path).
    std::vector<double> patternLogLikelihoods(const Genealogy& g) const;

    std::size_t patternCount() const { return patterns_.patternCount(); }
    std::size_t siteCount() const { return patterns_.siteCount(); }
    /// Pattern data — the SMC likelihood backends (lik/lik_backend.h)
    /// build their per-slot vectors over the same compressed patterns.
    const SitePatterns& patterns() const { return patterns_; }
    const SubstModel& model() const { return *model_; }
    const BaseFreqs& rootFreqs() const { return pi_; }
    const RateCategories& rateCategories() const { return rates_; }
    const LikelihoodEngine& engine() const { return *engine_; }

    // The engine holds references into this object; pinning the address
    // keeps them valid for the object's whole lifetime.
    DataLikelihood(const DataLikelihood&) = delete;
    DataLikelihood& operator=(const DataLikelihood&) = delete;

  private:
    /// Per-branch transition matrices for a genealogy, indexed by child id;
    /// branch lengths scaled by `rate`.
    std::vector<Matrix4> branchMatrices(const Genealogy& g, double rate = 1.0) const;

    /// Log-likelihood of one pattern via a pruning pass over the traversal
    /// `order`; `partials` is caller-provided scratch ([node][nucleotide]),
    /// with underflow handled by per-node rescaling carried in log space
    /// (§5.3).
    double computePattern(const Genealogy& g, const std::vector<NodeId>& order,
                          const std::vector<Matrix4>& pmat, std::size_t pattern,
                          std::vector<double>& partials) const;

    SitePatterns patterns_;
    std::unique_ptr<SubstModel> model_;
    BaseFreqs pi_;
    RateCategories rates_;
    // Last member: its construction reads patterns_/model_/rates_.
    std::unique_ptr<LikelihoodEngine> engine_;
};

}  // namespace mpcgs
