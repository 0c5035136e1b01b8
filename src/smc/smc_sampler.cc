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
}

SmcFilter::SmcFilter(SlotArena& arena, double theta, const SmcOptions& opts,
                     std::uint64_t passSeed, ThreadPool* pool)
    : arena_(arena),
      theta_(theta),
      opts_(opts),
      passSeed_(passSeed),
      pool_(pool),
      totalEvents_([&] {
          validateSmcOptions(opts);
          if (!(theta > 0.0)) throw ConfigError("smc: theta must be positive");
          const int n = static_cast<int>(arena.tipNames().size());
          if (n < 2) throw ConfigError("smc: need at least 2 sequences");
          return n - 1;
      }()),
      cloud_(opts.particles, arena, totalEvents_ + 1, passSeed, pool) {
    res_.logZ = cloud_.initialLogForestLikelihood();
    inc_.resize(cloud_.size());
}

void SmcFilter::step() {
    const obs::TraceSpan span("smc_generation", "smc");
    const std::size_t N = cloud_.size();
    const int n = totalEvents_ + 1;
    const int event = event_;

    // Parallel over particle blocks: each slot draws its own event with its
    // own stream, records the merge in the write-once slot of (p, event)
    // and combines into it, folding the new root. The block partition
    // depends only on (N, kParticleBlockSize).
    {
        const obs::TraceSpan propose("smc_propose", "smc");
        const obs::PhaseTimer timer(obs::Counter::SmcProposeNs);
        launchBlocked(pool_, N, kParticleBlockSize,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                          for (std::size_t p = begin; p < end; ++p) propagate(p, event);
                      });
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
    double merged;
    arena_.combine(parent, sa, t - cloud_.slotTime(sa), sb, t - cloud_.slotTime(sb),
                   &merged);
    // Incremental log-weight: the partial-likelihood ratio.
    inc_[p] = merged - pt.rootLogL[a] - pt.rootLogL[b];

    // Replace root a with the merged subtree, drop root b (swap-with-back
    // keeps the arrays dense; a < b, so position a survives the swap).
    pt.slots[a] = parent;
    pt.rootLogL[a] = merged;
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
    return std::move(res_);
}

SmcPassResult runSmcPass(const DataLikelihood& lik, double theta, const SmcOptions& opts,
                         std::uint64_t passSeed, ThreadPool* pool) {
    const obs::TraceSpan span("smc_pass", "smc");
    SlotArena arena(lik);
    SmcFilter filter(arena, theta, opts, passSeed, pool);
    while (!filter.done()) filter.step();
    return filter.finish();
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
