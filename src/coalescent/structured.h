// Structured (multi-deme) coalescent — LAMARC's defining scenario beyond
// single-deme theta: K populations exchanging migrants, each with its own
// scaled size theta_k and per-lineage backward migration rates M_kl.
//
// Going backward in time, with n_k lineages extant in deme k:
//
//   pair coalescence rate within deme k : 2 / theta_k      (Eq. 17 per deme)
//   total coalescence rate in deme k    : n_k (n_k - 1) / theta_k
//   migration of one lineage k -> l     : M_kl per lineage
//
// The density of a fully labelled genealogy (topology, node times, deme
// labels and per-branch migration events) is therefore
//
//   log P(G | Theta, M) =   sum_k [ c_k log(2/theta_k) - W_k / theta_k ]
//                         + sum_{k != l} [ m_kl log M_kl - U_k M_kl ]
//
// with the sufficient statistics  c_k   coalescences in deme k,
//                                 W_k   int n_k (n_k - 1) dt,
//                                 m_kl  migration events k -> l,
//                                 U_k   int n_k dt  (lineage-time in k).
// With K = 1 every term reduces bitwise to the Kingman prior of Eq. 18.
//
// Samples are reduced to StructuredSummary on arrival (the §5.1.3
// discipline: store sufficient statistics, not genealogies), so the
// relative-likelihood curve of Eq. 26 generalizes to any (theta_k, M_kl).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phylo/tree.h"
#include "rng/rng.h"

namespace mpcgs {

/// Parameters of the K-deme structured coalescent. Migration rates are
/// stored row-major: mig[k * K + l] is the backward rate k -> l (diagonal
/// entries are ignored and kept at 0).
struct MigrationModel {
    std::vector<double> theta;  ///< theta_k, one per deme
    std::vector<double> mig;    ///< K x K row-major backward rates, diag 0

    MigrationModel() = default;
    /// K demes with all thetas = `th` and all off-diagonal rates = `m`.
    MigrationModel(int K, double th, double m);

    int demeCount() const { return static_cast<int>(theta.size()); }
    double rate(int from, int to) const {
        return mig[static_cast<std::size_t>(from) * theta.size() +
                   static_cast<std::size_t>(to)];
    }
    void setRate(int from, int to, double m) {
        mig[static_cast<std::size_t>(from) * theta.size() +
            static_cast<std::size_t>(to)] = m;
    }
    /// Total emigration rate of one lineage in deme k: sum_l M_kl.
    double totalRateFrom(int k) const;

    /// Throws ConfigError unless every theta_k is positive and finite and
    /// every off-diagonal migration rate is positive and finite (K >= 2;
    /// positivity keeps the label chain irreducible and every proposal
    /// density finite). A single deme needs no migration entries.
    void validate() const;

    bool operator==(const MigrationModel&) const = default;
};

/// One migration event on a branch: going backward in time the lineage
/// switches to `toDeme` at `time`.
struct MigrationEvent {
    double time = 0.0;
    int toDeme = 0;

    bool operator==(const MigrationEvent&) const = default;
};

/// A deme-labelled genealogy: the plain tree plus, per node, the deme the
/// lineage occupies at the node's own time, and, per non-root node, the
/// ordered migration events on the branch from the node up to its parent.
///
/// Label consistency: walking a branch upward from the node's deme and
/// applying its events must land in the parent's deme — both children of
/// every coalescence therefore meet in the parent's deme, as the structured
/// coalescent requires (lineages only coalesce within a deme).
class StructuredGenealogy {
  public:
    StructuredGenealogy() = default;
    /// Label an existing tree: every node in deme 0, no migration events
    /// (the K = 1 embedding of a plain genealogy).
    explicit StructuredGenealogy(Genealogy tree);

    const Genealogy& tree() const { return tree_; }
    Genealogy& tree() { return tree_; }

    int deme(NodeId id) const { return nodeDeme_[static_cast<std::size_t>(id)]; }
    void setDeme(NodeId id, int d) { nodeDeme_[static_cast<std::size_t>(id)] = d; }

    const std::vector<MigrationEvent>& branchEvents(NodeId child) const {
        return branchEvents_[static_cast<std::size_t>(child)];
    }
    std::vector<MigrationEvent>& branchEvents(NodeId child) {
        return branchEvents_[static_cast<std::size_t>(child)];
    }

    /// Total number of migration events over all branches.
    std::size_t migrationCount() const;

    /// True when the labelling is consistent: every deme in [0, K), branch
    /// events strictly inside the branch, strictly ascending, actually
    /// switching deme, and every branch's top deme equal to the parent's
    /// deme. (The tree itself is NOT re-validated here; use validate().)
    bool consistent(int K) const;

    /// tree().validate() plus consistent(K), throwing InvariantError with a
    /// description on failure.
    void validate(int K) const;

    bool operator==(const StructuredGenealogy&) const = default;

  private:
    Genealogy tree_;
    std::vector<int> nodeDeme_;
    std::vector<std::vector<MigrationEvent>> branchEvents_;
};

/// Sufficient statistics of one labelled genealogy for the structured
/// prior (see the header comment). The vectors are sized K and K*K.
struct StructuredSummary {
    std::vector<double> coal;  ///< c_k: coalescences in deme k
    std::vector<double> W;     ///< int n_k (n_k - 1) dt
    std::vector<double> mig;   ///< m_kl, row-major (diag 0)
    std::vector<double> U;     ///< int n_k dt

    int demeCount() const { return static_cast<int>(coal.size()); }

    static StructuredSummary fromGenealogy(const StructuredGenealogy& g, int K);

    bool operator==(const StructuredSummary&) const = default;
};

/// log P(G | model) from sufficient statistics (exact for the density of
/// the labelled history; -inf when a migration count is positive under a
/// zero rate).
double logStructuredPrior(const StructuredSummary& s, const MigrationModel& model);

/// log P(G | model) of a labelled genealogy. Returns -inf when the
/// labelling is inconsistent with model.demeCount() demes.
double logStructuredPrior(const StructuredGenealogy& g, const MigrationModel& model);

/// Draw one labelled genealogy for contemporary tips with the given deme
/// assignment (tipDemes[i] in [0, K)) under `model` — the two-deme `ms -I`
/// substitute. Gillespie simulation of the competing coalescence and
/// migration clocks; terminates almost surely because validate() requires
/// positive off-diagonal rates for K >= 2.
StructuredGenealogy simulateStructuredCoalescent(const std::vector<int>& tipDemes,
                                                 const MigrationModel& model, Rng& rng);

/// Transition probability P(X_T = to | X_0 = from) of the two-state
/// migration label chain over elapsed time T (closed form; requires
/// model.demeCount() == 2). Used by tests and by the moment checks.
double twoDemeTransitionProb(const MigrationModel& model, int from, int to, double T);

}  // namespace mpcgs
