// Online SMC: graft new sequences into a completed posterior cloud.
//
// The batch filter (smc_sampler.h) targets P(G | D_n, theta) for a fixed
// n-sequence alignment. Serving traffic means the dataset GROWS: a new
// sequence arrives and the posterior must be updated without re-running
// the filter from scratch. This module implements that add-sequence move
// as one sequential-importance step over the whole cloud:
//
//   1. Rebuild every particle's per-node conditional vectors against the
//      enlarged alignment's pattern set in one slot arena — each particle
//      combines its own tree in postorder, all particles in one launch
//      over fixed particle blocks (the generation-launch shape of the
//      batch filter).
//   2. In the same launch, enumerate each particle's candidate attachment
//      branches (every branch of the old tree plus the root lineage),
//      golden-section-optimize the attachment height per candidate against
//      the EXACT grafted-tree likelihood, and sample an attachment from the
//      softmax of the optimized scores — a guided proposal with a
//      closed-form density. Scores are SlotArena combines: every supported
//      model is time-reversible, so the grafted tree is rooted at the new
//      node, where the new tip, the subtree below the branch (its lower
//      slot) and the rest of the tree (an outer slot, combined once per
//      node) meet.
//   3. Importance-reweight by the exact target/proposal ratio
//        dlogw = [logL_{n+1}(G') + logPrior_{n+1}(G')]
//              - [logL_n(G) + logPrior_n(G)] - log q(branch) - log q(h|b),
//      whose cloud average estimates log P(D_{n+1}) - log P(D_n); the
//      accumulated logZ therefore stays an estimate of the full-data
//      marginal likelihood.
//   4. When the reweighted cloud degenerates (ESS below the threshold),
//      refresh: resample ancestors and optionally rejuvenate every
//      particle with recoalesce Metropolis-Hastings sweeps against the
//      enlarged-data posterior.
//
// Determinism contract (inherited from the batch filter): particle slot i
// owns a persistent Mt19937 stream, cloud-level draws use the host
// stream, all parallel phases run over fixed particle blocks
// (launchBlocked), and a particle's combines write only its own slots and
// its block's scratch slots — an online update is bitwise invariant to
// the thread count, and a saved/loaded OnlineState continues
// bitwise-identically (serve kill+resume).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "rng/mt19937.h"
#include "seq/alignment.h"
#include "smc/resampling.h"
#include "smc/smc_sampler.h"

namespace mpcgs {

/// One particle of the online cloud: a full genealogy over the current
/// alignment plus its normalized log-weight and cached data
/// log-likelihood (the denominator of the next add-sequence reweight).
struct OnlineParticle {
    Genealogy tree;
    double logW = 0.0;
    double logL = 0.0;
};

/// Knobs of the add-sequence move and its ESS refresh.
struct OnlineOptions {
    /// Refresh (resample + rejuvenate) when ESS < essThreshold * N after a
    /// reweight; 1.0 refreshes after every update, 0.0 never.
    double essThreshold = 0.5;
    ResamplingScheme scheme = ResamplingScheme::Systematic;
    /// Recoalesce MH sweeps per particle after an ESS-triggered resample
    /// (0 disables rejuvenation).
    std::size_t rejuvenationSweeps = 1;
};

/// The warm posterior state a serve session holds per dataset: the
/// alignment seen so far, the particle cloud over it, the RNG streams and
/// the accumulated log marginal-likelihood estimate. Self-contained — the
/// checkpoint round-trip (saveOnlineState/loadOnlineState) captures
/// everything an update consumes, so resume is bitwise-identical.
struct OnlineState {
    Alignment alignment;
    std::string substModel = "F81";
    double theta = 1.0;
    std::uint64_t seed = 0;      ///< original pass seed (provenance)
    std::uint64_t updates = 0;   ///< add-sequence moves applied so far
    double logZ = 0.0;           ///< running log P(D | theta) estimate
    std::vector<OnlineParticle> particles;
    Mt19937 hostRng;             ///< cloud-level draws (resampling)
    std::vector<Mt19937> slotRngs;  ///< one stream per particle slot
};

/// Outcome of one add-sequence update.
struct OnlineUpdateResult {
    double logZIncrement = 0.0;  ///< estimate of log P(D_{n+1})/P(D_n)
    double essFraction = 1.0;    ///< ESS/N after the reweight
    bool refreshed = false;      ///< ESS refresh (resample) triggered
    std::size_t rejuvenationAccepts = 0;  ///< accepted recoalesce moves
};

/// Bootstrap an online state by running the batch filter to completion on
/// `aln` and harvesting its full cloud (every particle's tree, weight and
/// cached root likelihood), RNG streams and logZ. Throws ConfigError on
/// bad options (validateSmcOptions / SmcFilter preconditions).
OnlineState initOnlineState(const Alignment& aln, double theta, const SmcOptions& smc,
                            const std::string& substModel, std::uint64_t seed,
                            ThreadPool* pool = nullptr);

/// The add-sequence updater. Borrows the state (mutated in place) and the
/// pool; construction is cheap — per-update resources (pattern data,
/// slot arena) are rebuilt per call because the enlarged
/// alignment's compressed pattern set differs from the old one. Throws
/// ConfigError on a threshold outside [0, 1], an empty state or a theta
/// that is not positive (NaN included).
class OnlineSmcUpdater {
  public:
    OnlineSmcUpdater(OnlineState& state, const OnlineOptions& opts,
                     ThreadPool* pool = nullptr);

    /// Graft `seq` into every particle and reweight the cloud. Throws
    /// ConfigError on length mismatch or duplicate name, NumericError on a
    /// non-finite reweight (online.reweight guard).
    OnlineUpdateResult addSequence(const Sequence& seq);

  private:
    OnlineState& state_;
    OnlineOptions opts_;
    ThreadPool* pool_;
};

/// Weighted M-step theta estimate of the current cloud:
/// theta_hat = sum_i W_i * S_i / (n - 1) with S_i the sufficient statistic
/// sum_k k(k-1) t_k of particle i's genealogy — the cloud average of the
/// single-tree MLE.
double onlineThetaEstimate(const OnlineState& state);

/// ESS/N of the current normalized weights.
double onlineEssFraction(const OnlineState& state);

/// Persist / restore an online state as a v5 checkpoint (named CRC-32C
/// sections, atomic rename, two-generation retention — the standard
/// snapshot discipline). loadOnlineState throws ResumeError for files that
/// cannot be read back (missing, truncated, corrupt).
void saveOnlineState(const std::string& path, const OnlineState& state);
OnlineState loadOnlineState(const std::string& path);

/// Exact log-likelihood of `tree` with the LAST sequence of `lik`'s
/// alignment grafted as a new tip above node `attach` at height `height`,
/// from the same slot-arena combines addSequence scores and commits with.
/// `tree` has one tip fewer than the alignment has sequences, and its tip
/// t is sequence t. Exposed for the agreement tests; attach == tree.root()
/// means the root lineage (height above the root).
double onlineAttachmentLogLik(const DataLikelihood& lik, const Genealogy& tree,
                              NodeId attach, double height);

}  // namespace mpcgs
