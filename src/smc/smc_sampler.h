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
// the data-lookahead term computed incrementally by the likelihood backend
// (lik/lik_backend.h). With intermediate targets pi_t = Prior_t x L_t, the
// SMC identity
//
//   log Zhat = log L(forest_0) + sum_t log( sum_i Wbar_{t-1,i} w_t,i )
//
// is an UNBIASED estimator of the marginal likelihood P(D | theta) — the
// quantity MCMC-EM can only maximize, never report. ESS-triggered adaptive
// resampling (any scheme in smc/resampling.h) keeps the cloud balanced.
//
// Parallelism: each generation is propagated in two phases. Phase one runs
// thread-parallel over fixed-size particle blocks (launchBlocked) with
// per-slot RNG streams, drawing every particle's event and ENQUEUEING its
// likelihood operations against the backend; phase two is one
// backend.flush() that executes the whole generation's batch. Backends
// affect scheduling only, so logZ is bitwise invariant to both the thread
// count and the backend choice (asserted in bench/smc_scaling.cc and
// tests/lik_backend_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/posterior.h"
#include "lik/felsenstein.h"
#include "lik/lik_backend.h"
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
    /// Particle-block grain of the parallel launches; fixed so the block
    /// partition (and thus the result) is independent of the thread count.
    std::size_t blockSize = 16;
    /// Likelihood execution backend. Scheduling-only: every backend
    /// produces bitwise-identical samples, weights and logZ.
    LikBackendKind backend = kDefaultLikBackend;
};

/// Throws ConfigError on nonsensical options (no particles, threshold
/// outside [0,1], zero block size).
void validateSmcOptions(const SmcOptions& opts);

/// One filter pass over the posterior P(G | D, theta).
struct SmcPassResult {
    double logZ = 0.0;              ///< unbiased log marginal likelihood estimate
    std::size_t resamples = 0;      ///< adaptive resampling events triggered
    double minEssFraction = 1.0;    ///< smallest ESS/N seen across steps
    Genealogy sampled;              ///< one genealogy drawn from the final cloud
    double sampledLogPosterior = 0.0;  ///< log P(D|G) + log P(G|theta) of it
    std::string backend;            ///< likelihood backend that ran the pass
};

/// The genealogy particle filter, stepped one coalescence generation at a
/// time. Owns the particle cloud; borrows the likelihood backend. After
/// construction the steady state allocates nothing per step (asserted in
/// tests/zero_alloc_test.cc): partials live in pass-static backend slots,
/// per-generation scratch is persistent, and resampling reuses its
/// buffers. runSmcPass is the one-shot convenience wrapper.
class SmcFilter {
  public:
    /// Throws ConfigError on bad options, non-positive theta or fewer than
    /// two sequences. `backend` must outlive the filter; `pool` (optional)
    /// parallelizes both propagation and batch execution.
    SmcFilter(LikelihoodBackend& backend, double theta, const SmcOptions& opts,
              std::uint64_t passSeed, ThreadPool* pool = nullptr);

    bool done() const { return event_ == totalEvents_; }
    /// Advance every particle by one coalescence: propagate + enqueue
    /// (parallel over particle blocks), flush the generation's likelihood
    /// batch, update weights, adaptively resample.
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
    /// Phase-one work of particle `p` at `event`: draw the coalescence,
    /// record its merge, enqueue its combine (which folds the new root).
    void propagate(std::size_t p, int event);

    LikelihoodBackend& backend_;
    double theta_;
    SmcOptions opts_;
    std::uint64_t passSeed_;
    ThreadPool* pool_;
    int totalEvents_;
    int event_ = 0;
    ParticleCloud cloud_;
    SmcPassResult res_;
    // Per-generation scratch, sized once (parallel phase writes, serial
    // phase reads).
    std::vector<double> inc_;         ///< incremental log-weights
    std::vector<double> oldA_;        ///< merged children's cached logL
    std::vector<double> oldB_;
    std::vector<double> mergedLogL_;  ///< batch output of the combines' root folds
    std::vector<std::uint32_t> mergedPos_;  ///< root-array position of the merge
};

/// Run one SMC pass under opts.backend. Everything random derives from
/// `passSeed` (slot streams + cloud-level draws), so the result is a
/// deterministic function of (lik, theta, opts, passSeed) for ANY pool
/// width and ANY backend.
SmcPassResult runSmcPass(const DataLikelihood& lik, double theta, const SmcOptions& opts,
                         std::uint64_t passSeed, ThreadPool* pool = nullptr);

/// The SMC marginal-likelihood curve theta -> log Zhat(theta) behind the
/// ThetaLikelihood interface, so maximizeTheta / supportInterval drive
/// SMC-based point estimates and support curves directly. Every
/// evaluation reuses the same passSeed (common random numbers), making
/// the curve a deterministic function of theta — smooth enough for the
/// golden-section fallback even when gradient ascent stalls on residual
/// Monte-Carlo roughness.
class SmcThetaLikelihood final : public ThetaLikelihood {
  public:
    SmcThetaLikelihood(const DataLikelihood& lik, SmcOptions opts, std::uint64_t passSeed)
        : lik_(lik), opts_(opts), passSeed_(passSeed) {}

    double logL(double theta, ThreadPool* pool = nullptr) const override;

  private:
    const DataLikelihood& lik_;
    SmcOptions opts_;
    std::uint64_t passSeed_;
};

/// Multi-locus pooled marginal likelihood: independent per-locus particle
/// clouds, their logZ summed —
///   log Zhat(theta) = sum_l log Zhat_l(mu_l * theta),
/// locus l's pass seeded splitMix64At(passSeed, l) so loci decorrelate.
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

    std::size_t locusCount() const { return loci_.size(); }

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
