// The structured-coalescent inference problem: deme-labelled genealogy
// state, posterior, proposal bindings for the generic MH engine, and the
// profile-likelihood M-step over (theta_1..theta_K, M_kl).
//
// The unnormalized posterior over labelled genealogies is
//
//   log pi(G) = log P(D | tree(G)) + log P(G | Theta, M),
//
// with P(D|.) the unchanged Felsenstein kernel (migration labels do not
// affect the substitution process) and the structured prior of
// coalescent/structured.h. The E-step samples labelled genealogies; each
// sample is reduced to its StructuredSummary, and the M-step maximizes the
// generalized Eq. 26 relative likelihood
//
//   L(Theta, M) = (1/N) sum_G P(G | Theta, M) / P(G | Theta0, M0)
//
// coordinate by coordinate, each 1-D slice driven through the abstract
// ThetaLikelihood machinery (core/mle.h, core/support_interval.h) so the
// structured model reuses the exact maximizers and support-interval search
// of the single-theta pipeline.
#pragma once

#include <vector>

#include "coalescent/structured.h"
#include "core/genealogy_problem.h"
#include "core/mle.h"
#include "core/posterior.h"
#include "core/structured_recoalesce.h"
#include "core/support_interval.h"
#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "rng/rng.h"

namespace mpcgs {

/// The tree of a labelled genealogy: migration labels do not affect the
/// substitution process.
inline const Genealogy& treeOf(const StructuredGenealogy& g) { return g.tree(); }

/// Problem binding for MhChain<StructuredMhProblem>: a fixed-probability
/// mixture of migration-aware recoalescence and migration-path refresh.
/// Each move type computes its own exact Hastings densities and reverses
/// through the same move type, so the mixture weight cancels and the
/// random-scan kernel is pi-reversible. Both moves carry their region: a
/// recoalescence the nodes it changed, a path refresh (labels only) the
/// empty region, which scores as one root fold over the chain's arena.
/// Label-inconsistent states short-circuit to -inf before any likelihood
/// work, so rejected path-refresh proposals never price a pruning pass.
class StructuredMhProblem
    : public RegionPosterior<StructuredMhProblem, StructuredGenealogy, RecoalesceRegion> {
  public:
    StructuredMhProblem(const DataLikelihood& lik, MigrationModel model,
                        double pathRefreshProb = 0.25);

    /// log P(G | Theta, M); -inf for an inconsistent labelling.
    double logPrior(const State& g) const { return logStructuredPrior(g, model_); }
    static const Region& changedNodes(const Region& region) { return region; }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
        Region region;
    };
    Proposal propose(const State& cur, Rng& rng) const;

    const MigrationModel& model() const { return model_; }

  private:
    MigrationModel model_;
    double pathRefreshProb_;
};

/// Coordinates of a MigrationModel flattened for 1-D profile slices:
/// [theta_0 .. theta_{K-1}, M_01, M_02, ..] (off-diagonals row-major).
int structuredCoordinateCount(int demeCount);
std::string structuredCoordinateName(int demeCount, int coord);
double getStructuredCoordinate(const MigrationModel& m, int coord);
void setStructuredCoordinate(MigrationModel& m, int coord, double value);

/// The generalized Eq. 26 curve over sampled StructuredSummary statistics.
class StructuredRelativeLikelihood {
  public:
    StructuredRelativeLikelihood(std::vector<StructuredSummary> samples,
                                 MigrationModel driving);

    /// log L(model) = log mean_G exp(logP(G|model) - logP(G|driving)).
    double logL(const MigrationModel& model) const;

    std::size_t sampleCount() const { return samples_.size(); }
    const MigrationModel& driving() const { return driving_; }

  private:
    std::vector<StructuredSummary> samples_;
    std::vector<double> logPriorAtDriving_;
    MigrationModel driving_;
};

/// 1-D slice through the structured curve along one coordinate, the rest
/// pinned — a ThetaLikelihood, so maximizeTheta and supportInterval drive
/// the structured M-step unchanged.
class StructuredCoordinateSlice final : public ThetaLikelihood {
  public:
    StructuredCoordinateSlice(const StructuredRelativeLikelihood& rl, MigrationModel pinned,
                              int coord)
        : rl_(rl), pinned_(std::move(pinned)), coord_(coord) {}

    double logL(double x, ThreadPool* pool = nullptr) const override;

  private:
    const StructuredRelativeLikelihood& rl_;
    MigrationModel pinned_;
    int coord_;
};

struct StructuredMleResult {
    MigrationModel model;
    double logL = 0.0;
    int sweeps = 0;
    bool converged = false;
};

/// Cyclic coordinate ascent: maximize each 1-D slice in turn via
/// maximizeTheta until no coordinate moves by more than `tol` (relative).
StructuredMleResult maximizeStructured(const StructuredRelativeLikelihood& rl,
                                       MigrationModel start, double tol = 1e-5,
                                       int maxSweeps = 10, ThreadPool* pool = nullptr);

/// Approximate per-parameter support interval: the 1-D slice through the
/// joint maximum along `coord` (other coordinates pinned at the MLE — a
/// conditional, not a full profile, interval; see README).
SupportInterval structuredSupportInterval(const StructuredRelativeLikelihood& rl,
                                          const MigrationModel& mle, int coord,
                                          double drop = 1.92, ThreadPool* pool = nullptr);

}  // namespace mpcgs
