// Sequential Monte Carlo over coalescent genealogies.
//
// The filter grows every particle coalescence-by-coalescence (Chen & Xie
// 2013's particle MCMC construction over Kingman's coalescent; Cappello &
// Palacios 2019 use the same event-by-event decomposition): with k live
// lineages, propose the waiting time from the prior's full coalescence
// rate k(k-1)/theta and a uniform pair to merge. The proposal density then
// equals the per-event coalescent prior (Eq. 17) exactly, so the prior
// cancels from the incremental importance weight, leaving the
// partial-forest likelihood ratio
//
//   w_t = L(forest_t) / L(forest_{t-1})
//       = L_root(new node) / (L_root(child a) * L_root(child b)),
//
// the data-lookahead term computed incrementally by one slot-arena combine
// (lik/slot_arena.h). With intermediate targets pi_t = Prior_t x L_t, the
// SMC identity
//
//   log Zhat = log L(forest_0) + sum_t log( sum_i Wbar_{t-1,i} w_t,i )
//
// is an UNBIASED estimator of the marginal likelihood P(D | theta) — the
// quantity MCMC-EM can only maximize, never report. ESS-triggered adaptive
// resampling (any scheme in smc/resampling.h) keeps the cloud balanced.
//
// Parallelism: each generation is one launch, thread-parallel over
// fixed-size particle blocks (launchBlocked) with per-slot RNG streams:
// every particle draws its event and runs its combine, which writes only
// the particle's own slot of that event. Each combine is the same
// compiled item on the same slots whatever the block's thread, so logZ is
// bitwise invariant to the thread count (asserted in
// bench/smc_scaling.cc and tests/lik_backend_test.cc).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/posterior.h"
#include "lik/felsenstein.h"
#include "lik/slot_arena.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "smc/particle_cloud.h"
#include "smc/resampling.h"

namespace mpcgs {

struct SmcOptions {
    std::size_t particles = 512;
    ResamplingScheme scheme = ResamplingScheme::Systematic;
    /// Resample when ESS < essThreshold * particles. The boundaries are
    /// contractual: 1.0 resamples on EVERY step (unconditionally — not
    /// just when ESS happens to dip below N), 0.0 never resamples.
    double essThreshold = 0.5;
};

/// Particle-block grain of the parallel launches of the filter and of the
/// online updater; fixed so the block partition (and thus the result) is
/// independent of the thread count.
inline constexpr std::size_t kParticleBlockSize = 16;

/// Throws ConfigError on nonsensical options (no particles, threshold
/// outside [0,1]).
void validateSmcOptions(const SmcOptions& opts);

/// One filter pass over the posterior P(G | D, theta).
struct SmcPassResult {
    double logZ = 0.0;              ///< unbiased log marginal likelihood estimate
    std::size_t resamples = 0;      ///< adaptive resampling events triggered
    double minEssFraction = 1.0;    ///< smallest ESS/N seen across steps
    Genealogy sampled;              ///< one genealogy drawn from the final cloud
    double sampledLogPosterior = 0.0;  ///< log P(D|G) + log P(G|theta) of it
};

/// The genealogy particle filter, stepped one coalescence generation at a
/// time. Owns the particle cloud; borrows the slot arena. After
/// construction the steady state allocates nothing per step (asserted in
/// tests/zero_alloc_test.cc): partials live in pass-static arena slots,
/// per-generation scratch is persistent, and resampling reuses its
/// buffers. runSmcPass is the one-shot convenience wrapper.
class SmcFilter {
  public:
    /// Throws ConfigError on bad options, non-positive theta or fewer than
    /// two sequences. `arena` must outlive the filter; `pool` (optional)
    /// parallelizes propagation.
    SmcFilter(SlotArena& arena, double theta, const SmcOptions& opts,
              std::uint64_t passSeed, ThreadPool* pool = nullptr);

    bool done() const { return event_ == totalEvents_; }
    /// Advance every particle by one coalescence: propagate (parallel over
    /// particle blocks), update weights, adaptively resample.
    void step();
    /// Draw one genealogy from the final cloud and assemble the pass
    /// result. Call exactly once, after done(); the filter is spent.
    SmcPassResult finish();

    ParticleCloud& cloud() { return cloud_; }

    /// log marginal-likelihood estimate accumulated so far (the final
    /// pass value once done()). Read by the online updater, which harvests
    /// a finished filter's cloud without consuming it through finish().
    double logZ() const { return res_.logZ; }
    double theta() const { return theta_; }

  private:
    /// Parallel-phase work of particle `p` at `event`: draw the
    /// coalescence, record its merge, run its combine (which folds the new
    /// root) and set the particle's incremental log-weight.
    void propagate(std::size_t p, int event);

    SlotArena& arena_;
    double theta_;
    SmcOptions opts_;
    std::uint64_t passSeed_;
    ThreadPool* pool_;
    int totalEvents_;
    int event_ = 0;
    ParticleCloud cloud_;
    SmcPassResult res_;
    /// Incremental log-weights, sized once (parallel phase writes, serial
    /// phase reads).
    std::vector<double> inc_;
};

/// Run one SMC pass over a fresh slot arena. Everything random derives
/// from `passSeed` (slot streams + cloud-level draws), so the result is a
/// deterministic function of (lik, theta, opts, passSeed) for ANY pool
/// width.
SmcPassResult runSmcPass(const DataLikelihood& lik, double theta, const SmcOptions& opts,
                         std::uint64_t passSeed, ThreadPool* pool = nullptr);

/// The SMC marginal-likelihood curve theta -> log Zhat(theta) behind the
/// ThetaLikelihood interface, so maximizeTheta / supportInterval drive
/// SMC-based point estimates and support curves directly. Multi-locus:
/// independent per-locus particle clouds, their logZ summed —
///   log Zhat(theta) = sum_l log Zhat_l(mu_l * theta),
/// locus l's pass seeded splitMix64At(passSeed, l) so loci decorrelate.
/// Every evaluation reuses the same passSeed (common random numbers),
/// making the curve a deterministic function of theta — smooth enough for
/// the golden-section fallback even when gradient ascent stalls on
/// residual Monte-Carlo roughness.
class PooledSmcLikelihood final : public ThetaLikelihood {
  public:
    struct LocusTerm {
        const DataLikelihood* lik = nullptr;
        double mutationScale = 1.0;
    };

    PooledSmcLikelihood(std::vector<LocusTerm> loci, SmcOptions opts,
                        std::uint64_t passSeed)
        : loci_(std::move(loci)), opts_(opts), passSeed_(passSeed) {}

    double logL(double theta, ThreadPool* pool = nullptr) const override;

    /// Full per-locus pass results at one theta (pooled logZ = sum, plus
    /// each locus's sampled genealogy) — the PMMH inner evaluation.
    std::vector<SmcPassResult> passes(double theta, std::uint64_t passSeed,
                                      ThreadPool* pool = nullptr) const;

  private:
    std::vector<LocusTerm> loci_;
    SmcOptions opts_;
    std::uint64_t passSeed_;
};

}  // namespace mpcgs
