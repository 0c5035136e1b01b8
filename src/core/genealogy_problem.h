// Problem bindings: genealogy state + posterior + proposal mechanisms,
// consumed by the generic MH and GMH engines.
//
// The unnormalized posterior (Eq. 24/29) is
//   log pi(G) = log P(D|G) + log P(G|theta),
// with P(D|G) from the Felsenstein kernel and P(G|theta) from Eq. 18.
#pragma once

#include <array>

#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "coalescent/prior.h"
#include "lik/felsenstein.h"
#include "lik/partials_buffer.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Shared posterior evaluation. Holds references; keep the DataLikelihood
/// alive for the problem's lifetime. Likelihood evaluation is serial by
/// design: the samplers parallelize *across* proposals/chains (the paper's
/// one-thread-per-proposal layout), so nested pool use never occurs. The
/// one exception is the GMH region hook below, whose arena evaluations run
/// on the pool between fan-outs.
class GenealogyPosterior {
  public:
    GenealogyPosterior(const DataLikelihood& lik, double theta);

    double theta() const { return theta_; }
    double logPosterior(const Genealogy& g) const;
    double logDataLikelihood(const Genealogy& g) const;

  private:
    const DataLikelihood& lik_;
    double theta_;
};

/// Baseline problem for MhChain: single-lineage recoalescence moves.
class MhGenealogyProblem {
  public:
    using State = Genealogy;

    MhGenealogyProblem(const DataLikelihood& lik, double theta)
        : posterior_(lik, theta), theta_(theta) {}

    double logPosterior(const State& g) const { return posterior_.logPosterior(g); }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        auto r = proposeRecoalesce(cur, theta_, rng);
        return Proposal{std::move(r.state), r.logForward, r.logReverse};
    }

    double theta() const { return theta_; }

  private:
    GenealogyPosterior posterior_;
    double theta_;
};

/// What the GMH problems share: shared-neighbourhood resimulation (§4.3)
/// driven at `proposalTheta`, the posterior log P(D|G) + logPrior(G) with
/// the prior from `Derived`, and the region hook of GmhSampler. The
/// sampler's arena holds one evaluation of the current generator; each
/// proposal re-prunes only T, P and P's ancestors over it
/// (LikelihoodEngine::evaluateRegion), and a move to the chosen member
/// re-prunes the same nodes into the arena (evaluateDirty). Both overloads
/// of logPosterior add the same prior to a likelihood that equals a full
/// evaluation bitwise, so they agree bitwise by construction.
template <class Derived>
class NeighborhoodGmhProblem {
  public:
    using State = Genealogy;
    using Region = NeighborhoodRegion;
    using Arena = PartialsBuffer;

    double logPosterior(const State& g) const { return lik_.logLikelihood(g) + prior(g); }
    double logPosterior(const Region& region, const Arena& arena, const State& g) const {
        return lik_.engine().evaluateRegion(g, changedNodes(region), arena) + prior(g);
    }

    Region makeRegion(const State& generator, Rng& hostRng) const {
        return makeNeighborhoodRegion(generator, proposalTheta_, hostRng);
    }
    State proposeInRegion(const Region& region, Rng& rng) const {
        return proposeInNeighborhood(region, rng);
    }
    double logProposalDensity(const Region& region, const State& s) const {
        return logNeighborhoodDensity(region, s);
    }
    void evaluateGenerator(const State& generator, Arena& arena, ThreadPool* pool) const {
        lik_.engine().evaluate(generator, arena, pool);
    }
    void moveGenerator(const Region& region, const State& member, Arena& arena,
                       ThreadPool* pool) const {
        lik_.engine().evaluateDirty(member, changedNodes(region), arena, pool);
    }

  protected:
    NeighborhoodGmhProblem(const DataLikelihood& lik, double proposalTheta)
        : lik_(lik), proposalTheta_(proposalTheta) {}

    const DataLikelihood& lik_;
    double proposalTheta_;

  private:
    /// A member differs from the region's generator only at T and P.
    static std::array<NodeId, 2> changedNodes(const Region& region) {
        return {region.target, region.parent};
    }
    double prior(const State& g) const { return static_cast<const Derived&>(*this).logPrior(g); }
};

/// Multiple-proposal problem for GmhSampler under the constant-size
/// coalescent prior.
class GmhGenealogyProblem : public NeighborhoodGmhProblem<GmhGenealogyProblem> {
  public:
    GmhGenealogyProblem(const DataLikelihood& lik, double theta);

    /// log P(G|theta), Eq. 18.
    double logPrior(const State& g) const { return logCoalescentPrior(g, proposalTheta_); }

    double theta() const { return proposalTheta_; }
};

}  // namespace mpcgs
