// Single-lineage recoalescence — the proposal move of the production
// LAMARC sampler (Kuhner-Yamato-Felsenstein 1995), used here as the serial
// Metropolis-Hastings baseline the paper benchmarks against (§4.2).
//
// The move: pick a uniform random non-root node v, detach the subtree
// rooted at v, dissolve v's parent (reconnecting v's sibling to its
// grandparent), then trace v's lineage backward in time from t_v letting it
// coalesce with each remaining ("inactive") lineage at the Kingman pair
// rate 2/theta. Above the remaining root the lineage races only the root
// lineage, so re-attachment is guaranteed. The proposal density is exactly
// the conditional coalescent prior of the attachment, so the MH ratio
// collapses to the data-likelihood ratio of Eq. 28; both directional
// densities are nevertheless computed explicitly and used in the full
// Hastings ratio, making the sampler robust by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Outcome of one recoalescence proposal.
struct RecoalesceProposal {
    Genealogy state;      ///< proposed genealogy
    double logForward;    ///< log q(G -> G') given the chosen target
    double logReverse;    ///< log q(G' -> G) given the same target
    NodeId target;        ///< the detached node v
    NodeId rebuiltParent; ///< the re-created coalescent node (v's new parent)
};

/// Draw one proposal from `g` under `theta`. Throws ConfigError for
/// non-positive theta.
RecoalesceProposal proposeRecoalesce(const Genealogy& g, double theta, Rng& rng);

/// Piecewise-constant index of the lineages of a partial genealogy that an
/// active lineage can coalesce with. Exposed for tests; built internally by
/// proposeRecoalesce after the target subtree and its parent are detached.
class LineageIndex {
  public:
    /// Index the structure reachable from `root` in `g` (arena may contain
    /// detached nodes; only the reachable component counts). The root
    /// lineage extends to +infinity.
    LineageIndex(const Genealogy& g, NodeId root);

    /// Nodes whose parent branch crosses t (the root node represents the
    /// semi-infinite root lineage).
    std::vector<NodeId> crossingNodes(double t) const;

    /// Integral of the crossing count from a to b (a <= b).
    double integrateCount(double a, double b) const;

    /// Sample an attachment: starting at `start`, wait for an exponential
    /// event with total hazard 2*m(t)/theta. Returns the attachment time.
    double sampleAttachTime(double start, double theta, Rng& rng) const;

    /// log density of attaching to one specific lineage at time s >= start:
    /// log(2/theta) - (2/theta) * integral_start^s m(u) du.
    double logAttachDensity(double start, double s, double theta) const;

  private:
    const Genealogy& g_;
    NodeId root_;
    std::vector<double> boundaries_;  ///< sorted node times (distinct)
    std::vector<int> count_;          ///< crossing count in [boundaries_[i], boundaries_[i+1])
};

}  // namespace mpcgs
