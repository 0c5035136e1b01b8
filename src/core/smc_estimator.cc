#include "core/smc_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "core/mle.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

PooledSmcLikelihood::LocusTerm termFor(const Dataset& ds, const LocusLikelihoods& liks,
                                       std::size_t l) {
    return PooledSmcLikelihood::LocusTerm{&liks.at(l), ds.locus(l).mutationScale};
}

std::vector<PooledSmcLikelihood::LocusTerm> allTerms(const Dataset& ds,
                                                     const LocusLikelihoods& liks) {
    std::vector<PooledSmcLikelihood::LocusTerm> terms;
    terms.reserve(ds.locusCount());
    for (std::size_t l = 0; l < ds.locusCount(); ++l) terms.push_back(termFor(ds, liks, l));
    return terms;
}

// --- PMMH checkpoint layout -------------------------------------------
// fingerprint ('PSMC' tag + run configuration + locus roster) | burnTicks |
// the run's phase: one slot without a sink, as SamplerRun::save writes it.
// Left out of the fingerprint on purpose: the sample cap (a resumed run may
// extend the horizon), the checkpoint interval and the supervisor. It also
// lacks the stopping thresholds, which only a new format version can add.

CheckpointEncoder fingerprint(const PmmhEstimateOptions& opts, const Dataset& ds) {
    CheckpointEncoder f;
    f.u32(kPmmhSnapshotTag);
    f.u64(opts.pmmh.seed);
    f.u64(opts.pmmh.chains);
    f.u64(opts.pmmh.smc.particles);
    f.u32(static_cast<std::uint32_t>(opts.pmmh.smc.scheme));
    f.f64(opts.pmmh.smc.essThreshold);
    f.f64(opts.pmmh.proposalSigma);
    f.f64(opts.pmmh.thetaMin);
    f.f64(opts.pmmh.thetaMax);
    f.f64(opts.theta0);
    f.u64(opts.burnInFraction1000);
    f.str(opts.substModel);
    writeLocusRoster(f, ds);
    return f;
}

// --- SMC-estimate checkpoint layout -----------------------------------
// fingerprint ('SMCZ' tag + run configuration + locus roster) | memo
// (the (theta, logZ) pairs evaluated so far, in evaluation order). Left
// out of the fingerprint on purpose: the curve export, the checkpoint
// interval and the supervisor.

constexpr std::uint32_t kSmcEstimateSnapshotTag = 0x5A434D53u;  // "SMCZ"

CheckpointEncoder fingerprint(const SmcEstimateOptions& opts, const Dataset& ds) {
    CheckpointEncoder f;
    f.u32(kSmcEstimateSnapshotTag);
    f.u64(opts.seed);
    f.u64(opts.smc.particles);
    f.u32(static_cast<std::uint32_t>(opts.smc.scheme));
    f.f64(opts.smc.essThreshold);
    f.f64(opts.theta0);
    f.str(opts.substModel);
    writeLocusRoster(f, ds);
    return f;
}

/// Memoizing, checkpointing, stop-aware view of the pooled SMC curve.
/// Every logZ value is a deterministic function of theta (common random
/// numbers), so the memo of evaluated (theta, logZ) pairs IS the whole
/// optimizer state: a resumed run hands the deterministic maximizer the
/// cached values bitwise as it re-traverses the same theta sequence, and
/// only goes live at the first theta the interrupted run never reached.
class CheckpointedSmcLikelihood final : public ThetaLikelihood {
  public:
    CheckpointedSmcLikelihood(const PooledSmcLikelihood& inner,
                              const SmcEstimateOptions& opts, const Dataset& ds)
        : inner_(inner),
          opts_(opts),
          ds_(ds),
          snapshotEvery_(opts.checkpointIntervalEvals ? opts.checkpointIntervalEvals
                                                      : 8) {}

    double logL(double theta, ThreadPool* pool = nullptr) const override {
        const std::uint64_t key = thetaKey(theta);
        asked_.insert(key);
        if (const auto it = index_.find(key); it != index_.end()) return it->second;
        // Stop only before a LIVE evaluation: memo replay after a resume
        // involves no new work, so cache hits never interrupt.
        if (opts_.supervisor && opts_.supervisor->stopRequested()) {
            if (!opts_.checkpointPath.empty()) snapshot();
            throw InterruptedError("stop requested before SMC curve evaluation " +
                                       std::to_string(memo_.size() + 1) + " (" +
                                       opts_.supervisor->stopReason() + ")",
                                   !opts_.checkpointPath.empty());
        }
        const double v = inner_.logL(theta, pool);
        memo_.emplace_back(theta, v);
        index_.emplace(key, v);
        if (!opts_.checkpointPath.empty() && memo_.size() % snapshotEvery_ == 0)
            snapshot();
        return v;
    }

    void loadFromSnapshot() {
        try {
            CheckpointReader r(pickResumeSnapshot(opts_.checkpointPath));
            if (!r.fingerprintMatches(fingerprint(opts_, ds_)))
                throw ConfigError(
                    "resume: SMC checkpoint was written by an incompatible run configuration");
            r.enterSection("memo");
            const std::uint64_t n = r.u64();
            for (std::uint64_t i = 0; i < n; ++i) {
                const double t = r.f64();
                const double v = r.f64();
                memo_.emplace_back(t, v);
                index_.emplace(thetaKey(t), v);
            }
        } catch (const CheckpointError& e) {
            throw ResumeError(e.what());
        }
    }

    /// Distinct theta asked for, live or replayed from a snapshot. Memo
    /// entries of a snapshot that this run never asks for do not count.
    std::size_t evaluations() const { return asked_.size(); }

  private:
    static std::uint64_t thetaKey(double theta) {
        std::uint64_t k = 0;
        std::memcpy(&k, &theta, sizeof k);
        return k;
    }

    void snapshot() const {
        withCheckpointRetry(opts_.supervisor, [&] {
            CheckpointWriter w(opts_.checkpointPath);
            w.fingerprint(fingerprint(opts_, ds_));
            w.beginSection("memo");
            w.u64(memo_.size());
            for (const auto& [t, v] : memo_) {
                w.f64(t);
                w.f64(v);
            }
            w.commit();
        });
    }

    const PooledSmcLikelihood& inner_;
    const SmcEstimateOptions& opts_;
    const Dataset& ds_;
    std::size_t snapshotEvery_;
    mutable std::vector<std::pair<double, double>> memo_;
    mutable std::unordered_map<std::uint64_t, double> index_;
    mutable std::unordered_set<std::uint64_t> asked_;
};

// Optimizer settings for the SMC curve. Under common random numbers the
// curve is deterministic, but it is a Monte Carlo estimate and jagged at
// small scales: on a 10 x 400 bp alignment with 256 particles, points 2e-4
// apart near the mode differ by 0.3-0.6 in logZ. The smooth-curve defaults
// spend passes resolving that noise, so:
// - a line-search trial more than a factor kMaxStepFactor from its iterate
//   is halved without a pass (the theta^2-scaled gradient step otherwise
//   tries points decades away, which the search then rejects);
// - a step shorter than the finite-difference step ends the line search,
//   since the gradient cannot resolve the curve below it;
// - each interval crossing is bisected to kIntervalTolerance in log theta,
//   where the bounds of other pass seeds lie tenths away.
constexpr double kMaxStepFactor = 2.0;
constexpr double kIntervalTolerance = 1e-3;

double quantileOfSorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

SmcEstimateResult estimateThetaSmc(const Dataset& dataset, const SmcEstimateOptions& opts,
                                   ThreadPool* pool) {
    if (!(opts.theta0 > 0.0)) throw ConfigError("smc: theta0 must be positive");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("smc: resume requires a checkpointPath");
    validateSmcOptions(opts.smc);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("smc_estimate", "smc");
    const LocusLikelihoods liks(dataset, opts.substModel);
    const PooledSmcLikelihood pooled(allTerms(dataset, liks), opts.smc, opts.seed);
    CheckpointedSmcLikelihood curve(pooled, opts, dataset);
    if (opts.resume) curve.loadFromSnapshot();

    SmcEstimateResult res;
    GradientAscentOptions ascent;
    ascent.maxStepFactor = kMaxStepFactor;
    ascent.minStep = ascent.delta;
    const MleResult mle = maximizeTheta(curve, opts.theta0, pool, ascent);
    res.theta = mle.theta;
    res.logZAtMax = mle.logL;
    res.support = supportInterval(curve, res.theta, 1.92, 1e4, pool, kIntervalTolerance);
    if (opts.curvePoints > 0)
        res.curve = curve.curve(res.theta / 20, res.theta * 20, opts.curvePoints, pool);
    res.passes = curve.evaluations();
    res.totalSeconds = total.seconds();
    return res;
}

PmmhEstimateResult runPmmh(const Dataset& dataset, const PmmhEstimateOptions& opts,
                           ThreadPool* pool) {
    if (!(opts.theta0 > 0.0)) throw ConfigError("pmmh: theta0 must be positive");
    if (opts.samples == 0) throw ConfigError("pmmh: need >= 1 sample");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("pmmh: burn-in permille must be <= 1000");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("pmmh: resume requires a checkpointPath");
    validatePmmhOptions(opts.pmmh);
    dataset.validate();

    Timer total;
    const obs::TraceSpan span("pmmh_run", "mcmc");
    const LocusLikelihoods liks(dataset, opts.substModel);
    const PooledSmcLikelihood pooled(allTerms(dataset, liks), opts.pmmh.smc,
                                     opts.pmmh.seed);
    PmmhSampler sampler(pooled, opts.theta0, opts.pmmh, pool);

    const std::size_t capTicks =
        (opts.samples + opts.pmmh.chains - 1) / opts.pmmh.chains;
    // Planned burn-in, derived from the cap on a fresh run. A resumed run
    // takes the ORIGINAL run's value from the snapshot instead: the cap is
    // outside the fingerprint precisely so --samples can grow, and
    // recomputing burn ticks from the new cap would inject extra
    // burn ticks into the middle of an already-sampling chain.
    std::size_t burnTicks = (capTicks * opts.burnInFraction1000 + 999) / 1000;

    // PMMH's posterior lives in the theta traces (kept by the sampler) and
    // the convergence monitor; the genealogy stream goes to no sink.
    ConvergenceMonitor monitor;
    std::unique_ptr<CheckpointReader> resumeReader;
    if (opts.resume) {
        try {
            resumeReader = std::make_unique<CheckpointReader>(
                pickResumeSnapshot(opts.checkpointPath));
            if (!resumeReader->fingerprintMatches(fingerprint(opts, dataset)))
                throw ConfigError(
                    "resume: PMMH checkpoint was written by an incompatible run configuration");
            resumeReader->enterSection("context");
            burnTicks = resumeReader->u64();
        } catch (const CheckpointError& e) {
            throw ResumeError(e.what());
        }
    }

    SamplerRun::Config cfg;
    cfg.burnInTicks = burnTicks;
    cfg.sampleTicks = capTicks;
    cfg.stopping.rhatBelow = opts.stopRhat;
    cfg.stopping.essAtLeast = opts.stopEss;
    cfg.checkpointInterval = opts.checkpointIntervalTicks;
    if (opts.supervisor) cfg.stopRequested = opts.supervisor->stopCallback();
    cfg.numeric.enabled = true;
    cfg.numeric.theta = opts.theta0;
    cfg.numeric.seed = opts.pmmh.seed;
    cfg.numeric.phase = "runPmmh sampling";
    if (!opts.checkpointPath.empty()) {
        cfg.checkpoint = [&, burnTicks](const SamplerRun& run) {
            withCheckpointRetry(opts.supervisor, [&] {
                CheckpointWriter w(opts.checkpointPath);
                w.fingerprint(fingerprint(opts, dataset));
                w.beginSection("context");
                w.u64(burnTicks);  // freeze the burn geometry for resumes
                run.save(w);
                w.commit();
            });
        };
    }

    SamplerRun run({{&sampler, nullptr, &monitor, ""}}, cfg);
    if (resumeReader) run.load(*resumeReader);

    const SamplerRunReport report = run.execute().front();

    PmmhEstimateResult res;
    res.stoppedEarly = report.stoppedEarly;
    res.rhat = report.rhat;
    res.ess = report.ess;
    const SamplerStats stats = sampler.stats();
    res.acceptRate = stats.moveRate();
    obs::add(obs::Counter::McmcSteps, stats.steps);
    obs::add(obs::Counter::McmcAccepted, stats.accepted);
    if (res.rhat > 0.0) obs::set(obs::Gauge::McmcRhat, res.rhat);
    if (res.ess > 0.0) obs::set(obs::Gauge::McmcPooledEss, res.ess);
    for (std::size_t c = 0; c < opts.pmmh.chains; ++c) {
        const std::vector<double>& trace = sampler.thetaTrace(c);
        res.thetaChainMajor.insert(res.thetaChainMajor.end(), trace.begin(), trace.end());
    }
    res.samples = res.thetaChainMajor.size();
    if (!res.thetaChainMajor.empty()) {
        double sum = 0.0;
        for (double t : res.thetaChainMajor) sum += t;
        res.posteriorMean = sum / static_cast<double>(res.samples);
        double ss = 0.0;
        for (double t : res.thetaChainMajor) {
            const double d = t - res.posteriorMean;
            ss += d * d;
        }
        res.posteriorSd = res.samples > 1
                              ? std::sqrt(ss / static_cast<double>(res.samples - 1))
                              : 0.0;
        std::vector<double> sorted = res.thetaChainMajor;
        std::sort(sorted.begin(), sorted.end());
        res.q025 = quantileOfSorted(sorted, 0.025);
        res.median = quantileOfSorted(sorted, 0.5);
        res.q975 = quantileOfSorted(sorted, 0.975);
    }
    res.totalSeconds = total.seconds();
    return res;
}

}  // namespace mpcgs
