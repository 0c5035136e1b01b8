#include "smc/smc_sampler.h"

#include <cmath>
#include <limits>
#include <utility>

#include "coalescent/prior.h"
#include "core/numeric_guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/kernel.h"
#include "rng/splitmix.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/logspace.h"

namespace mpcgs {

void validateSmcOptions(const SmcOptions& opts) {
    if (opts.particles == 0) throw ConfigError("smc: need >= 1 particle");
    if (!(opts.essThreshold >= 0.0 && opts.essThreshold <= 1.0))
        throw ConfigError("smc: ESS threshold must lie in [0, 1]");
    if (opts.blockSize == 0) throw ConfigError("smc: particle block size must be >= 1");
}

SmcFilter::SmcFilter(LikelihoodBackend& backend, double theta, const SmcOptions& opts,
                     std::uint64_t passSeed, ThreadPool* pool)
    : backend_(backend),
      theta_(theta),
      opts_(opts),
      passSeed_(passSeed),
      pool_(pool),
      totalEvents_([&] {
          validateSmcOptions(opts);
          if (theta <= 0.0) throw ConfigError("smc: theta must be positive");
          const int n = static_cast<int>(backend.tipNames().size());
          if (n < 2) throw ConfigError("smc: need at least 2 sequences");
          return n - 1;
      }()),
      cloud_(opts.particles, backend, totalEvents_ + 1, passSeed, pool) {
    const std::size_t N = cloud_.size();
    res_.logZ = cloud_.initialLogForestLikelihood();
    inc_.resize(N);
    oldA_.resize(N);
    oldB_.resize(N);
    mergedLogL_.resize(N);
    mergedPos_.resize(N);
}

void SmcFilter::step() {
    const obs::TraceSpan span("smc_generation", "smc");
    const std::size_t N = cloud_.size();
    const int n = totalEvents_ + 1;
    const int event = event_;

    // Phase one — parallel over particle blocks: each slot draws its own
    // event with its own stream, records the merge in the write-once slot
    // of (p, event), and enqueues the generation's likelihood work (one
    // combine per particle, folding the new root). The block partition
    // depends only on (N, blockSize).
    {
        const obs::TraceSpan propose("smc_propose", "smc");
        const obs::PhaseTimer timer(obs::Counter::SmcProposeNs);
        launchBlocked(pool_, N, opts_.blockSize,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t p = begin; p < end; ++p) propagate(p, event);
                      });
    }

    // Phase two — execute the generation's likelihood batch.
    {
        const obs::TraceSpan flush("smc_flush", "smc");
        backend_.flush(pool_);
    }
    for (std::size_t p = 0; p < N; ++p) {
        cloud_.particle(p).rootLogL[mergedPos_[p]] = mergedLogL_[p];
        // Incremental log-weight: the partial-likelihood ratio.
        inc_[p] = mergedLogL_[p] - oldA_[p] - oldB_[p];
    }

    // Serial cloud-level bookkeeping: logZ += log(sum_i Wbar_i w_i).
    const std::span<double> logW = cloud_.logWeights();
    // Fail points live in this serial section only, so their evaluation
    // counts (one per event) stay deterministic: smc.weight poisons one
    // particle's increment, smc.collapse sinks the whole cloud (total
    // degeneracy).
    if (const auto hit = MPCGS_FAILPOINT("smc.weight"); hit.fired()) {
        if (hit.action == failpoint::Action::Nan)
            inc_[0] = std::numeric_limits<double>::quiet_NaN();
        else
            throw InjectedFaultError("smc.weight");
    }
    if (const auto hit = MPCGS_FAILPOINT("smc.collapse"); hit.fired()) {
        if (hit.action == failpoint::Action::Nan)
            for (std::size_t p = 0; p < N; ++p)
                inc_[p] = -std::numeric_limits<double>::infinity();
        else
            throw InjectedFaultError("smc.collapse");
    }
    for (std::size_t p = 0; p < N; ++p) logW[p] += inc_[p];
    const double stepLogZ = cloud_.normalizeWeights();
    res_.logZ += stepLogZ;
    if (!std::isfinite(stepLogZ)) {
        // -inf = every weight collapsed to zero (total degeneracy);
        // NaN = a non-finite importance weight. Either way the pass is
        // unrecoverable — dump the cloud state and raise.
        const bool collapse = stepLogZ == -std::numeric_limits<double>::infinity();
        std::size_t finiteW = 0;
        for (std::size_t p = 0; p < N; ++p)
            if (std::isfinite(logW[p])) ++finiteW;
        NumericFaultContext ctx;
        ctx.where = collapse ? "smc.collapse" : "smc.weight";
        ctx.value = stepLogZ;
        ctx.theta = theta_;
        ctx.seed = passSeed_;
        ctx.tick = static_cast<std::uint64_t>(event);
        ctx.detail =
            "coalescence event: " + std::to_string(event) + " of " +
            std::to_string(n - 1) + "\nparticles: " + std::to_string(N) +
            "\nfinite weights after update: " + std::to_string(finiteW) +
            "\nresamples so far: " + std::to_string(res_.resamples) +
            (collapse ? "\nhint: total ESS collapse — increase --particles or "
                        "lower the ESS threshold"
                      : "\nhint: a particle produced a non-finite importance "
                        "weight — check the substitution model and theta");
        raiseNumericFault(ctx);
    }

    const double essFrac = cloud_.ess() / static_cast<double>(N);
    if (essFrac < res_.minEssFraction) res_.minEssFraction = essFrac;
    // Metrics live in this serial section for the same reason the fail
    // points do: their counts stay deterministic, and no RNG is touched.
    obs::add(obs::Counter::SmcGenerations);
    obs::set(obs::Gauge::SmcEssFraction, essFrac);
    obs::set(obs::Gauge::SmcMinEssFraction, res_.minEssFraction);
    obs::set(obs::Gauge::SmcStepLogZ, stepLogZ);
    obs::set(obs::Gauge::SmcLogZ, res_.logZ);
    const bool lastEvent = event == totalEvents_ - 1;
    // Threshold 1.0 means "resample every step" (the documented contract):
    // a strict ESS < N comparison alone would skip exactly-uniform clouds
    // (ESS == N, e.g. the step right after a resample with equal
    // incremental weights), so the boundary is forced unconditionally.
    const bool forceResample = opts_.essThreshold >= 1.0;
    if (!lastEvent &&
        (forceResample || cloud_.ess() < opts_.essThreshold * static_cast<double>(N))) {
        const obs::TraceSpan resample("smc_resample", "smc");
        const obs::PhaseTimer timer(obs::Counter::SmcResampleNs);
        cloud_.resample(opts_.scheme);
        ++res_.resamples;
        obs::add(obs::Counter::SmcResamples);
    }
    ++event_;
}

void SmcFilter::propagate(std::size_t p, int event) {
    Particle& pt = cloud_.particle(p);
    Mt19937& rng = cloud_.slotRng(p);
    const int k = pt.lineageCount();
    // Waiting time of the NEXT coalescence among k lineages: total rate
    // k(k-1)/theta (Eq. 17 summed over the k(k-1)/2 pairs).
    const double rate = static_cast<double>(k) * static_cast<double>(k - 1) / theta_;
    const double t = pt.lastEventTime + rng.exponential(rate);

    // Uniform unordered pair (i, j), i < j.
    const std::size_t i =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(k)));
    std::size_t j =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(k - 1)));
    if (j >= i) ++j;
    const std::size_t a = i < j ? i : j;
    const std::size_t b = i < j ? j : i;

    const ParticleCloud::Slot sa = pt.slots[a];
    const ParticleCloud::Slot sb = pt.slots[b];
    const ParticleCloud::Slot parent = cloud_.internalSlot(p, event);
    cloud_.recordMerge(parent, sa, sb, t);
    backend_.combine(parent, sa, t - cloud_.slotTime(sa), sb, t - cloud_.slotTime(sb),
                     &mergedLogL_[p]);
    oldA_[p] = pt.rootLogL[a];
    oldB_[p] = pt.rootLogL[b];
    mergedPos_[p] = static_cast<std::uint32_t>(a);

    // Replace root a with the merged subtree, drop root b (swap-with-back
    // keeps the arrays dense; a < b, so position a survives the swap). The
    // merged logL lands after the flush.
    pt.slots[a] = parent;
    pt.slots[b] = pt.slots.back();
    pt.slots.pop_back();
    pt.rootLogL[b] = pt.rootLogL.back();
    pt.rootLogL.pop_back();
    pt.lastEventTime = t;
}

SmcPassResult SmcFilter::finish() {
    // Draw one genealogy from the final weighted cloud (host stream).
    const std::size_t pick = cloud_.hostRng().categorical(cloud_.probabilities());
    res_.sampled = cloud_.genealogy(pick);
    res_.sampledLogPosterior = cloud_.particle(pick).rootLogL.front() +
                               logCoalescentPrior(res_.sampled, theta_);
    res_.backend = backend_.name();
    return std::move(res_);
}

SmcPassResult runSmcPass(const DataLikelihood& lik, double theta, const SmcOptions& opts,
                         std::uint64_t passSeed, ThreadPool* pool) {
    const obs::TraceSpan span("smc_pass", "smc");
    const std::unique_ptr<LikelihoodBackend> backend =
        makeLikelihoodBackend(opts.backend, lik);
    SmcFilter filter(*backend, theta, opts, passSeed, pool);
    while (!filter.done()) filter.step();
    return filter.finish();
}

double SmcThetaLikelihood::logL(double theta, ThreadPool* pool) const {
    return runSmcPass(lik_, theta, opts_, passSeed_, pool).logZ;
}

double PooledSmcLikelihood::logL(double theta, ThreadPool* pool) const {
    double total = 0.0;
    for (std::size_t l = 0; l < loci_.size(); ++l)
        total += runSmcPass(*loci_[l].lik, theta * loci_[l].mutationScale, opts_,
                            splitMix64At(passSeed_, l), pool)
                     .logZ;
    return total;
}

std::vector<SmcPassResult> PooledSmcLikelihood::passes(double theta,
                                                       std::uint64_t passSeed,
                                                       ThreadPool* pool) const {
    std::vector<SmcPassResult> out;
    out.reserve(loci_.size());
    for (std::size_t l = 0; l < loci_.size(); ++l)
        out.push_back(runSmcPass(*loci_[l].lik, theta * loci_[l].mutationScale, opts_,
                                 splitMix64At(passSeed, l), pool));
    return out;
}

}  // namespace mpcgs
