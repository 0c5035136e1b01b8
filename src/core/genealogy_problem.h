// Problem bindings: genealogy state + posterior + proposal mechanisms,
// consumed by the generic MH and GMH engines.
//
// The unnormalized posterior (Eq. 24/29) is
//   log pi(G) = log P(D|G) + log P(G|theta),
// with P(D|G) from the Felsenstein kernel and P(G|theta) from Eq. 18.
#pragma once

#include <array>
#include <limits>

#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "coalescent/prior.h"
#include "lik/felsenstein.h"
#include "lik/partials_buffer.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// The tree a state's likelihood is computed on (a labelled genealogy has
/// its own overload in core/structured_problem.h).
inline const Genealogy& treeOf(const Genealogy& g) { return g; }

/// What every genealogy problem shares: the posterior
/// log P(D|tree) + logPrior(state), with the prior from `Derived`, and the
/// region hook of the MCMC engines (mcmc/region.h). A chain's arena holds
/// one evaluation of its current state. A proposal re-prunes only the
/// nodes Derived::changedNodes(region) lists, and their ancestors, over it
/// (LikelihoodEngine::evaluateRegion), and a move to an accepted proposal
/// re-prunes the same nodes into the arena (evaluateDirty). Both overloads
/// of logPosterior add the same prior to a likelihood that equals a full
/// evaluation bitwise, so they agree bitwise by construction. A state
/// whose prior is -inf scores -inf before any likelihood work. Holds a
/// reference: keep the DataLikelihood alive for the problem's lifetime.
template <class Derived, class StateT, class RegionT>
class RegionPosterior {
  public:
    using State = StateT;
    using Region = RegionT;
    using Arena = PartialsBuffer;

    double logPosterior(const State& s) const {
        const double prior = derived().logPrior(s);
        if (prior == -std::numeric_limits<double>::infinity()) return prior;
        return lik_.logLikelihood(treeOf(s)) + prior;
    }
    /// `pool` runs the region's pattern blocks (MH chains pass theirs; the
    /// GMH fan-out passes none).
    double logPosterior(const Region& region, const Arena& arena, const State& s,
                        ThreadPool* pool = nullptr) const {
        const double prior = derived().logPrior(s);
        if (prior == -std::numeric_limits<double>::infinity()) return prior;
        return lik_.engine().evaluateRegion(treeOf(s), Derived::changedNodes(region), arena,
                                            pool) +
               prior;
    }
    void evaluateGenerator(const State& s, Arena& arena, ThreadPool* pool) const {
        lik_.engine().evaluate(treeOf(s), arena, pool);
    }
    void moveGenerator(const Region& region, const State& member, Arena& arena,
                       ThreadPool* pool) const {
        lik_.engine().evaluateDirty(treeOf(member), Derived::changedNodes(region), arena, pool);
    }

  protected:
    explicit RegionPosterior(const DataLikelihood& lik) : lik_(lik) {}

  private:
    const Derived& derived() const { return static_cast<const Derived&>(*this); }

    const DataLikelihood& lik_;
};

/// The nodes a single-lineage recoalescence of v changed: v's rebuilt
/// parent (new children and time) and the new parent of v's old sibling,
/// which took the sibling in place of v's old parent. Every other node
/// whose children or child branches differ between the two trees is an
/// ancestor of one of them, and the branches above v, its new sibling and
/// its old sibling each hang from one of them, so re-pruning their
/// ancestor closure re-evaluates the move exactly. kNoNode entries are
/// skipped, so a move that changes no node of the tree has the empty
/// region.
using RecoalesceRegion = std::array<NodeId, 2>;

/// The region of a recoalescence of `target` that turned `from` into `to`
/// and rebuilt `rebuiltParent`; the empty region when `target` is kNoNode.
inline RecoalesceRegion recoalesceRegion(const Genealogy& from, const Genealogy& to,
                                         NodeId target, NodeId rebuiltParent) {
    if (target == kNoNode) return {kNoNode, kNoNode};
    return {rebuiltParent, to.node(from.sibling(target)).parent};
}

/// Baseline problem for MhChain: single-lineage recoalescence moves under
/// the constant-size coalescent prior.
class MhGenealogyProblem
    : public RegionPosterior<MhGenealogyProblem, Genealogy, RecoalesceRegion> {
  public:
    MhGenealogyProblem(const DataLikelihood& lik, double theta);

    /// log P(G|theta), Eq. 18.
    double logPrior(const State& g) const { return logCoalescentPrior(g, theta_); }
    static const Region& changedNodes(const Region& region) { return region; }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
        Region region;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        auto r = proposeRecoalesce(cur, theta_, rng);
        const Region region = recoalesceRegion(cur, r.state, r.target, r.rebuiltParent);
        return Proposal{std::move(r.state), r.logForward, r.logReverse, region};
    }

    double theta() const { return theta_; }

  private:
    double theta_;
};

/// What the GMH problems share: shared-neighbourhood resimulation (§4.3)
/// driven at `proposalTheta`, on the posterior and region hook of
/// RegionPosterior.
template <class Derived>
class NeighborhoodGmhProblem : public RegionPosterior<Derived, Genealogy, NeighborhoodRegion> {
  public:
    using State = Genealogy;
    using Region = NeighborhoodRegion;

    Region makeRegion(const State& generator, Rng& hostRng) const {
        return makeNeighborhoodRegion(generator, proposalTheta_, hostRng);
    }
    State proposeInRegion(const Region& region, Rng& rng) const {
        return proposeInNeighborhood(region, rng);
    }
    double logProposalDensity(const Region& region, const State& s) const {
        return logNeighborhoodDensity(region, s);
    }
    /// A member differs from the region's generator only at T and P.
    static std::array<NodeId, 2> changedNodes(const Region& region) {
        return {region.target, region.parent};
    }

  protected:
    NeighborhoodGmhProblem(const DataLikelihood& lik, double proposalTheta)
        : RegionPosterior<Derived, Genealogy, NeighborhoodRegion>(lik),
          proposalTheta_(proposalTheta) {}

    double proposalTheta_;
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
