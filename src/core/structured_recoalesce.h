// Migration-aware proposal kernels for the structured coalescent — the
// two-deme generalization of the single-lineage recoalescence move
// (core/recoalesce.h) plus a labels-only migration-path refresh.
//
// Recoalescence: pick a uniform non-root node v, detach its subtree and
// dissolve its parent, then trace v's lineage backward from (t_v, deme_v)
// under the structured-coalescent clocks — coalescence with each remaining
// lineage *currently in the same deme* at pair rate 2/theta_d, migration
// d -> l at rate M_dl. The traced path's migration events become v's new
// branch events and the coalescence point re-creates the parent. Both
// directional densities (the exact density of the realized path + specific
// attachment) are computed against the same detached component, so the
// Hastings ratio is exact. Convention: the component root's lineage keeps
// its node deme out to infinity (migration above the surviving root is not
// modeled); states whose root branch carried migration events are
// therefore unreachable from their own proposals and such proposals
// honestly report logReverse = -inf (the MH engine rejects them — the
// path-refresh move keeps the chain ergodic across those labellings).
//
// Path refresh: pick a uniform non-root node w and resimulate the
// migration path on its branch as a FREE (unconditioned) label chain from
// the child's deme; a path that fails to land in the parent's deme makes
// the labelling inconsistent, so the posterior is -inf and MH rejects —
// no bridge normalizer needed, both densities stay exact. Topology and
// times are untouched, so this move explores labellings cheaply.
#pragma once

#include <span>
#include <vector>

#include "coalescent/structured.h"
#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Outcome of one structured proposal.
struct StructuredProposal {
    StructuredGenealogy state;  ///< proposed labelled genealogy
    double logForward = 0.0;    ///< log q(G -> G')
    double logReverse = 0.0;    ///< log q(G' -> G); -inf when G is unreachable
    NodeId target = kNoNode;         ///< recoalescence: the detached node v
    NodeId rebuiltParent = kNoNode;  ///< recoalescence: v's re-created parent
};

/// Piecewise-constant index of the deme-labelled lineages of a partial
/// structured genealogy (the detached component of the recoalescence
/// move). Exposed for tests.
class StructuredLineageIndex {
  public:
    /// Index the structure reachable from `root` in `g` (the arena may
    /// contain detached nodes). The root lineage extends to +infinity in
    /// the root node's deme; any branch events stored on `root` are
    /// ignored (the component root has no branch).
    StructuredLineageIndex(const StructuredGenealogy& g, NodeId root,
                           const MigrationModel& model);

    /// Lineages of the component in deme d crossing backward time t.
    int countInDeme(double t, int d) const;

    /// Owners of the branches in deme d crossing t, in ascending node id
    /// (deterministic). The root node represents the semi-infinite root
    /// lineage.
    std::vector<NodeId> nodesInDeme(double t, int d) const;

    /// One backward trace from (start, startDeme): migration events plus
    /// the final coalescence (attachment time + specific lineage), with the
    /// exact log density of the whole draw.
    struct Path {
        std::vector<MigrationEvent> events;
        double attachTime = 0.0;
        int attachDeme = 0;
        NodeId attachNode = kNoNode;
        double logDensity = 0.0;
    };
    Path samplePath(double start, int startDeme, Rng& rng) const;

    /// Exact log density of one specific realization of samplePath:
    /// the given migration events followed by attachment to `attachNode`
    /// at `attachTime`. Returns -inf for infeasible realizations (events
    /// out of order, migration under a zero rate, attachment to a lineage
    /// not present in the path's deme).
    double logPathDensity(double start, int startDeme,
                          std::span<const MigrationEvent> events, double attachTime,
                          NodeId attachNode) const;

  private:
    struct Segment {
        double begin, end;
        int deme;
        NodeId node;  ///< branch owner (the child below the branch)
    };

    /// Total event hazard at time t for an active lineage in deme d:
    /// 2 * countInDeme(t, d) / theta_d + sum_l M_dl.
    double hazard(double t, int d) const;
    /// Next indexed boundary strictly above t (+inf when none).
    double nextBoundary(double t) const;

    const MigrationModel& model_;
    std::vector<Segment> segments_;   ///< sorted by (node, begin)
    std::vector<double> boundaries_;  ///< sorted distinct finite segment bounds
    std::vector<int> counts_;         ///< per (interval, deme) crossing counts
};

/// Draw one migration-aware recoalescence proposal from `g` under `model`.
StructuredProposal proposeStructuredRecoalesce(const StructuredGenealogy& g,
                                               const MigrationModel& model, Rng& rng);

/// Draw one migration-path refresh proposal (labels only).
StructuredProposal proposeMigrationPathRefresh(const StructuredGenealogy& g,
                                               const MigrationModel& model, Rng& rng);

}  // namespace mpcgs
