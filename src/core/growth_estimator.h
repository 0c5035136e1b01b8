// Joint (theta, growth) estimation — the thesis's §7 extension realized.
//
// "Adding a new parameter would require a new proposal kernel ... as well
// as the ability to calculate that posterior probability" (§7). Because
// this library's GMH weights are pi(x)/q(x) with q computed exactly
// (DESIGN.md §1), the constant-size neighbourhood kernel remains a valid
// proposal for ANY genealogy posterior; adding growth only changes pi.
// The E-step samples genealogies under the growth posterior at the driving
// parameters; the M-step maximizes the two-parameter relative likelihood
//
//   L(theta, g) = (1/M) sum_G P(G|theta,g) / P(G|theta0,g0)        (Eq. 26')
//
// over the stored interval vectors (full vectors now: growth breaks the
// single-sufficient-statistic reduction of the constant-size model).
//
// Multi-locus datasets pool exactly as the constant-size pipeline does
// (core/locus_problem.h): each locus samples its own genealogies under its
// effective theta_l = mu_l * theta, and the pooled M-step maximizes
// sum_l log L_l(mu_l * theta, g) — growth is shared across loci.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coalescent/growth.h"
#include "core/genealogy_problem.h"
#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "seq/dataset.h"

namespace mpcgs {

/// Anything exposing a log relative likelihood over (theta, growth): one
/// locus's Eq. 26' surface or the pooled multi-locus sum. The coordinate
/// ascent maximizer operates on this interface.
class GrowthLikelihood {
  public:
    virtual ~GrowthLikelihood() = default;

    /// log L(theta, g).
    virtual double logL(const GrowthParams& p, ThreadPool* pool = nullptr) const = 0;
};

/// Two-parameter relative likelihood surface over sampled genealogies.
class GrowthRelativeLikelihood final : public GrowthLikelihood {
  public:
    GrowthRelativeLikelihood(std::vector<std::vector<CoalInterval>> samples,
                             GrowthParams driving);

    double logL(const GrowthParams& p, ThreadPool* pool = nullptr) const override;

    const GrowthParams& driving() const { return driving_; }
    std::size_t sampleCount() const { return samples_.size(); }

  private:
    std::vector<std::vector<CoalInterval>> samples_;
    std::vector<double> logPriorAtDriving_;
    GrowthParams driving_;
};

/// Pooled multi-locus surface: sum_l log L_l(mu_l * theta, g). Growth is a
/// shared parameter; each locus's theta axis is scaled by its mutation
/// rate. With one locus and mu = 1 this is the locus surface bitwise.
class PooledGrowthRelativeLikelihood final : public GrowthLikelihood {
  public:
    struct LocusTerm {
        GrowthRelativeLikelihood rl;
        double mutationScale = 1.0;
        std::string name;
    };

    explicit PooledGrowthRelativeLikelihood(std::vector<LocusTerm> loci);

    double logL(const GrowthParams& p, ThreadPool* pool = nullptr) const override;

    std::size_t locusCount() const { return loci_.size(); }

  private:
    std::vector<LocusTerm> loci_;
};

/// Coordinate-ascent maximization (golden sections in log-theta and in g).
struct GrowthMleResult {
    GrowthParams params;
    double logL = 0.0;
    int sweeps = 0;
    bool converged = false;
};
GrowthMleResult maximizeGrowthParams(const GrowthLikelihood& rl, GrowthParams start,
                                     double growthLo = 0.0, double growthHi = 20.0,
                                     ThreadPool* pool = nullptr);

/// GMH problem for the growth posterior: the constant-size neighbourhood
/// kernel driven at p.theta, growth-aware target density.
class GrowthGenealogyProblem : public NeighborhoodGmhProblem<GrowthGenealogyProblem> {
  public:
    GrowthGenealogyProblem(const DataLikelihood& lik, GrowthParams p)
        : NeighborhoodGmhProblem(lik, p.theta), p_(p) {}

    /// log P(G|theta, g) under exponential growth.
    double logPrior(const State& g) const { return logGrowthCoalescentPrior(g, p_); }

  private:
    GrowthParams p_;
};

/// Full EM pipeline for (theta, growth), mirroring Fig 11 with a
/// two-parameter M-step.
struct GrowthEstimateOptions {
    GrowthParams driving{1.0, 0.0};      ///< initial driving values
    std::size_t emIterations = 5;
    std::size_t samplesPerIteration = 4000;
    std::size_t gmhProposals = 32;
    std::uint64_t seed = 20160408;
    double growthLo = 0.0;               ///< M-step search bounds for g
    double growthHi = 20.0;
};

struct GrowthEstimateResult {
    GrowthParams params;
    std::vector<GrowthParams> history;  ///< driving values per EM iteration
    double seconds = 0.0;
};

/// Multi-locus pipeline: per-locus GMH chain sets per E-step, pooled
/// two-parameter M-step. `samplesPerIteration` applies per locus.
GrowthEstimateResult estimateThetaAndGrowth(const Dataset& dataset,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool = nullptr);

/// Single-alignment convenience wrapper: the L = 1 dataset case.
GrowthEstimateResult estimateThetaAndGrowth(const Alignment& aln,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool = nullptr);

}  // namespace mpcgs
