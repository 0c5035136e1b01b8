#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phylo/upgma.h"
#include "seq/distance.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

SamplerSpec specFor(const MpcgsOptions& opts, std::uint64_t seed) {
    SamplerSpec s;
    s.strategy = opts.strategy;
    s.seed = seed;
    s.gmhProposals = opts.gmhProposals;
    s.gmhSamplesPerSet = opts.gmhSamplesPerSet;
    s.chains = opts.chains;
    s.temperatures = opts.temperatures;
    return s;
}

struct RunGeometry {
    std::size_t burnTicks = 0;
    std::size_t capTicks = 0;
};

/// Tick budgets per strategy. A tick is the strategy's natural unit (MH
/// step, GMH proposal set, multi-chain round, MC^3 sweep); the budgets
/// reproduce the sample counts of the per-strategy glue this runtime
/// replaced: ceil(M / samplesPerTick) sampling ticks, burn-in as the
/// configured permille of the strategy's serial step count. In a
/// multi-locus run every locus gets the same budget (samplesPerIteration
/// is per locus).
RunGeometry geometryFor(const MpcgsOptions& opts) {
    RunGeometry g;
    switch (opts.strategy) {
        case Strategy::Gmh: {
            const std::size_t sampleIters =
                (opts.samplesPerIteration + opts.gmhSamplesPerSet - 1) / opts.gmhSamplesPerSet;
            g.capTicks = sampleIters;
            g.burnTicks = (sampleIters * opts.burnInFraction1000 + 999) / 1000;
            break;
        }
        case Strategy::SerialMh:
        case Strategy::HeatedMh:
            g.capTicks = opts.samplesPerIteration;
            g.burnTicks = (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;
            break;
        case Strategy::MultiChain:
            g.capTicks = (opts.samplesPerIteration + opts.chains - 1) / opts.chains;
            g.burnTicks = (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;
            break;
    }
    return g;
}

std::uint64_t emSeed(const MpcgsOptions& opts, std::size_t em) {
    return opts.seed + em * 0x632BE59BD9B4E019ull;
}

// --- checkpoint layout -------------------------------------------------
// fingerprint | emIndex theta | history | per-locus warm genealogies |
// phase (0 = iteration start, 1 = mid-iteration: the E-step's SamplerRun
// with one slot per locus, suffix ".<l>", as SamplerRun::save writes it).
//
// v2 stamps the locus roster (names, shapes, mutation scales) into the
// fingerprint and repeats every per-locus payload L times; v1 files are
// the single-locus layout (no roster, one genealogy, one slot) and are
// read back as L = 1. Left out of the fingerprint on purpose: the EM
// iteration count (a resumed run may extend the EM horizon of the
// interrupted one), the checkpoint interval and the supervisor.

/// The run configuration a snapshot must match to resume, as format
/// `version` encodes it.
CheckpointEncoder fingerprint(const MpcgsOptions& opts, const Dataset& ds,
                              std::uint32_t version = kCheckpointVersion) {
    CheckpointEncoder f;
    f.u32(static_cast<std::uint32_t>(opts.strategy));
    f.u64(opts.seed);
    f.u64(opts.samplesPerIteration);
    f.u64(opts.burnInFraction1000);
    f.u64(opts.gmhProposals);
    f.u64(opts.gmhSamplesPerSet);
    f.u64(opts.chains);
    f.doubles(opts.temperatures);
    f.str(opts.substModel);
    // Slot of the removed cached serial-MH flag: its snapshots (slot 1) hold
    // a data log-likelihood where serial MH expects a log-posterior.
    f.u32(0);
    f.f64(opts.theta0);
    f.f64(opts.stopRhat);
    f.f64(opts.stopEss);
    if (version >= 2) {
        writeLocusRoster(f, ds);
    } else {  // v1: locus 0's shape in place of the roster
        f.u64(ds.locus(0).alignment.sequenceCount());
        f.u64(ds.locus(0).alignment.length());
    }
    return f;
}

void writeHistory(CheckpointWriter& w, const std::vector<EmIterationRecord>& history) {
    w.u64(history.size());
    for (const EmIterationRecord& h : history) {
        w.f64(h.thetaBefore);
        w.f64(h.thetaAfter);
        w.f64(h.logLAtMax);
        w.f64(h.seconds);
        w.f64(h.moveRate);
        w.u64(h.samples);
        w.f64(h.rhat);
        w.f64(h.ess);
        w.u32(h.stoppedEarly ? 1 : 0);
    }
}

std::vector<EmIterationRecord> readHistory(CheckpointReader& r) {
    std::vector<EmIterationRecord> history(r.u64());
    for (EmIterationRecord& h : history) {
        h.thetaBefore = r.f64();
        h.thetaAfter = r.f64();
        h.logLAtMax = r.f64();
        h.seconds = r.f64();
        h.moveRate = r.f64();
        h.samples = r.u64();
        h.rhat = r.f64();
        h.ess = r.f64();
        h.stoppedEarly = r.u32() != 0;
    }
    return history;
}

}  // namespace

void validateOptions(const MpcgsOptions& opts) {
    if (!(opts.theta0 > 0.0)) throw ConfigError("options: theta0 must be positive");
    if (opts.emIterations == 0) throw ConfigError("options: need >= 1 EM iteration");
    if (opts.samplesPerIteration == 0)
        throw ConfigError("options: need >= 1 sample per EM iteration");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("options: burn-in permille must be <= 1000");
    if (opts.gmhProposals == 0) throw ConfigError("options: GMH needs proposals >= 1");
    if (opts.gmhSamplesPerSet == 0)
        throw ConfigError("options: GMH needs gmhSamplesPerSet >= 1");
    if (opts.chains == 0) throw ConfigError("options: MultiChain needs chains >= 1");
    if (opts.temperatures.empty())
        throw ConfigError("options: temperature ladder must not be empty");
    if (opts.temperatures.front() != 1.0)
        throw ConfigError("options: temperature ladder must start at 1.0 (the cold chain)");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("options: resume requires a checkpointPath");
}

namespace {

/// Which run mode(s) each mode-specific CLI flag belongs to. Flags absent
/// from this table (threads, seed, model, checkpoint/resume, failpoints,
/// ...) apply everywhere and are never rejected. The subcommands
/// (online-init, serve, serve-send) check their own flag lists, so their
/// names here only tell a batch run where a flag does apply.
struct AlgoFlag {
    const char* flag;
    const char* modes;  ///< space-separated applicable modes
};

constexpr AlgoFlag kAlgoFlags[] = {
    {"particles", "smc pmmh online-init"},
    {"resampling", "smc pmmh online-init serve"},
    {"ess-threshold", "smc pmmh online-init serve"},
    {"pmmh-sigma", "pmmh"},
    {"strategy", "mcmc"},
    {"proposals", "mcmc"},
    {"set-samples", "mcmc"},
    {"em", "mcmc structured"},
    {"samples", "mcmc pmmh structured"},
    {"chains", "mcmc pmmh structured"},
    {"curve", "mcmc smc"},
    {"stop-rhat", "mcmc pmmh structured"},
    {"stop-ess", "mcmc pmmh structured"},
    {"mig-init", "structured"},
    {"path-refresh", "structured"},
    {"pop-map", "structured"},
    {"state", "online-init serve"},
    {"socket", "serve serve-send"},
    {"host", "serve serve-send"},
    {"port", "serve serve-send"},
    {"rejuvenation-sweeps", "serve"},
    {"trace", "serve"},
};

bool modeListed(const char* modes, const std::string& mode) {
    const std::string all(modes);
    std::size_t pos = 0;
    while (pos < all.size()) {
        std::size_t end = all.find(' ', pos);
        if (end == std::string::npos) end = all.size();
        if (all.compare(pos, end - pos, mode) == 0) return true;
        pos = end + 1;
    }
    return false;
}

}  // namespace

void validateAlgoFlags(const Options& opts, const std::string& mode) {
    for (const AlgoFlag& af : kAlgoFlags) {
        if (!opts.has(af.flag) || modeListed(af.modes, mode)) continue;
        std::string applicable(af.modes);
        for (std::size_t i = 0; i < applicable.size(); ++i) {
            if (applicable[i] != ' ') continue;
            applicable.replace(i, 1, " | ");
            i += 2;  // step past the insertion so its space isn't re-expanded
        }
        throw ConfigError("--" + std::string(af.flag) + " does not apply to a " + mode +
                          " run (applicable: " + applicable + ")");
    }
}

Genealogy initialGenealogy(const Alignment& aln, double theta0) {
    if (theta0 <= 0.0) throw ConfigError("initialGenealogy: theta0 must be positive");
    Genealogy g = upgmaTree(hammingMatrix(aln));
    g.setTipNames(aln.names());
    scaleToExpectedHeight(g, theta0);
    return g;
}

PooledRelativeLikelihood finalPooledLikelihood(const MpcgsResult& result) {
    std::vector<PooledRelativeLikelihood::LocusTerm> terms;
    terms.reserve(result.loci.size());
    for (const LocusFinal& lf : result.loci)
        terms.push_back({RelativeLikelihood(lf.summaries, lf.drivingTheta),
                         lf.mutationScale, lf.name});
    return PooledRelativeLikelihood(std::move(terms));
}

MpcgsResult estimateTheta(const Dataset& dataset, const MpcgsOptions& opts,
                          ThreadPool* pool) {
    validateOptions(opts);
    dataset.validate();
    const std::size_t L = dataset.locusCount();
    if (opts.strategy == Strategy::Gmh)
        for (const Locus& locus : dataset.loci())
            if (locus.alignment.sequenceCount() < 3)
                throw ConfigError("estimateTheta: GMH needs at least 3 sequences (locus '" +
                                  locus.name + "')");

    Timer total;
    const LocusLikelihoods liks(dataset, opts.substModel, opts.compressPatterns);

    MpcgsResult result;
    double theta = opts.theta0;
    std::vector<Genealogy> current;
    current.reserve(L);
    for (std::size_t l = 0; l < L; ++l)
        current.push_back(initialGenealogy(dataset.locus(l).alignment,
                                           opts.theta0 * dataset.locus(l).mutationScale));
    std::size_t emStart = 0;

    // A mid-iteration snapshot stays open at its phase until the
    // iteration's run exists to load into.
    std::unique_ptr<CheckpointReader> resumeReader;

    if (opts.resume) {
        // Any CheckpointError while READING the snapshot context becomes a
        // ResumeError, so callers can fall back to a fresh run; fingerprint
        // mismatches stay ConfigError and stay fatal.
        try {
            resumeReader = std::make_unique<CheckpointReader>(
                pickResumeSnapshot(opts.checkpointPath));
            const std::uint32_t version = resumeReader->version();
            // A v1 snapshot holds a single locus at mutation scale 1.
            if (!resumeReader->fingerprintMatches(fingerprint(opts, dataset, version)) ||
                (version < 2 && (L != 1 || dataset.locus(0).mutationScale != 1.0)))
                throw ConfigError(
                    "resume: checkpoint was written by an incompatible run configuration");
            resumeReader->enterSection("context");
            emStart = resumeReader->u64();
            theta = resumeReader->f64();
            result.history = readHistory(*resumeReader);
            for (const EmIterationRecord& h : result.history)
                result.samplingSeconds += h.seconds;
            for (std::size_t l = 0; l < L; ++l) current[l] = readGenealogy(*resumeReader);
            if (resumeReader->u32() != 1) resumeReader.reset();  // iteration boundary
        } catch (const CheckpointError& e) {
            throw ResumeError(e.what());
        }
        if (emStart >= opts.emIterations)
            throw ConfigError("resume: checkpoint already covers all requested EM iterations");
    }

    const RunGeometry geom = geometryFor(opts);
    std::vector<LocusFinal> finals(L);

    // Every snapshot: the context, then the phase word and, mid-iteration
    // (`run` set), the E-step's phase.
    const auto snapshot = [&](std::size_t em, double drivingTheta,
                              const std::vector<Genealogy>& warmStarts, const SamplerRun* run) {
        withCheckpointRetry(opts.supervisor, [&] {
            CheckpointWriter w(opts.checkpointPath);
            w.fingerprint(fingerprint(opts, dataset));
            w.beginSection("context");
            w.u64(em);
            w.f64(drivingTheta);
            writeHistory(w, result.history);
            for (const Genealogy& g : warmStarts) writeGenealogy(w, g);
            w.u32(run ? 1 : 0);
            if (run) run->save(w);
            w.commit();
        });
    };

    for (std::size_t em = emStart; em < opts.emIterations; ++em) {
        // EM-boundary stop check: a signal that lands during the M-step is
        // honored before the next E-step allocates anything. The previous
        // iteration's boundary snapshot (when checkpointing) already
        // covers this state.
        if (opts.supervisor && opts.supervisor->stopRequested())
            throw InterruptedError(
                "stop requested at EM iteration boundary (" + std::to_string(em) + ")",
                !opts.checkpointPath.empty() && em > emStart);

        const obs::TraceSpan emSpan("em_iteration", "mcmc");
        EmIterationRecord rec;
        rec.thetaBefore = theta;

        Timer estep;
        const std::vector<Genealogy> emInit = current;  // warm starts, recorded in snapshots
        // One sampler per locus over P(D_l|G_l) * P(G_l | mu_l theta), each
        // with its own SplitMix64-derived stream family, all on the pool:
        // a single locus's sampler uses it for its own parallel sections,
        // while with several loci the loci axis claims it and each
        // sampler's launches run inline on its locus's worker.
        const std::uint64_t seed = emSeed(opts, em);
        std::vector<std::unique_ptr<Sampler>> samplers;
        samplers.reserve(L);
        for (std::size_t l = 0; l < L; ++l)
            samplers.push_back(makeSampler(specFor(opts, locusStreamSeed(seed, l)),
                                           liks.at(l),
                                           theta * dataset.locus(l).mutationScale,
                                           std::move(current[l]), pool));
        std::vector<SummarySink> sinks(L);
        std::vector<ConvergenceMonitor> monitors(L);

        SamplerRun::Config cfg;
        cfg.burnInTicks = geom.burnTicks;
        cfg.sampleTicks = geom.capTicks;
        cfg.stopping.rhatBelow = opts.stopRhat;
        cfg.stopping.essAtLeast = opts.stopEss;
        cfg.checkpointInterval = opts.checkpointIntervalTicks;
        cfg.pool = pool;
        if (opts.supervisor) cfg.stopRequested = opts.supervisor->stopCallback();
        cfg.numeric.enabled = true;
        cfg.numeric.theta = theta;
        cfg.numeric.seed = seed;
        cfg.numeric.phase = "estimateTheta E-step (EM iteration " + std::to_string(em) + ")";
        if (!opts.checkpointPath.empty())
            cfg.checkpoint = [&, em](const SamplerRun& run) {
                snapshot(em, rec.thetaBefore, emInit, &run);
            };

        std::vector<RunSlot> slots(L);
        for (std::size_t l = 0; l < L; ++l)
            slots[l] = RunSlot{samplers[l].get(), &sinks[l], &monitors[l], "." + std::to_string(l)};
        SamplerRun run(std::move(slots), cfg);
        if (resumeReader) {  // only ever the first iteration's
            run.load(*resumeReader);
            resumeReader.reset();
        }

        const std::vector<SamplerRunReport> reports = run.execute();
        rec.seconds = estep.seconds();
        result.samplingSeconds += rec.seconds;
        rec.stoppedEarly = true;  // every locus's stopping rule fired before the cap
        for (const SamplerRunReport& lr : reports) {
            rec.samples += lr.samples;
            rec.stoppedEarly = rec.stoppedEarly && lr.stoppedEarly;
            rec.rhat = std::max(rec.rhat, lr.rhat);
            rec.ess = rec.ess == 0.0 ? lr.ess : std::min(rec.ess, lr.ess);
        }
        SamplerStats stats;
        for (const auto& s : samplers) {
            const SamplerStats ls = s->stats();
            stats.steps += ls.steps;
            stats.accepted += ls.accepted;
            stats.swapsProposed += ls.swapsProposed;
            stats.swapsAccepted += ls.swapsAccepted;
        }
        rec.moveRate =
            opts.strategy == Strategy::HeatedMh ? stats.swapRate() : stats.moveRate();
        obs::add(obs::Counter::McmcSteps, stats.steps);
        obs::add(obs::Counter::McmcAccepted, stats.accepted);
        obs::add(obs::Counter::McmcSwapsProposed, stats.swapsProposed);
        obs::add(obs::Counter::McmcSwapsAccepted, stats.swapsAccepted);
        if (rec.rhat > 0.0) obs::set(obs::Gauge::McmcRhat, rec.rhat);
        if (rec.ess > 0.0) obs::set(obs::Gauge::McmcPooledEss, rec.ess);

        // M-step: pooled relative likelihood over the per-locus summaries,
        // each locus's curve driven at its effective theta.
        std::vector<PooledRelativeLikelihood::LocusTerm> terms;
        terms.reserve(L);
        for (std::size_t l = 0; l < L; ++l) {
            current[l] = samplers[l]->continuation();
            finals[l].name = dataset.locus(l).name;
            finals[l].mutationScale = dataset.locus(l).mutationScale;
            finals[l].drivingTheta = rec.thetaBefore * finals[l].mutationScale;
            finals[l].summaries = sinks[l].chainMajor();
            terms.push_back({RelativeLikelihood(finals[l].summaries, finals[l].drivingTheta),
                             finals[l].mutationScale, finals[l].name});
        }
        const PooledRelativeLikelihood rl(std::move(terms));
        const obs::TraceSpan mSpan("m_step", "mcmc");
        const MleResult mle = maximizeTheta(rl, theta, pool);
        theta = mle.theta;
        rec.thetaAfter = theta;
        rec.logLAtMax = mle.logL;
        result.history.push_back(rec);

        // EM-boundary snapshot: the next iteration restarts cleanly from
        // here even if the process dies during the M-step bookkeeping.
        if (!opts.checkpointPath.empty() && em + 1 < opts.emIterations)
            snapshot(em + 1, theta, current, nullptr);
    }

    result.theta = theta;
    result.loci = std::move(finals);
    result.finalSummaries = result.loci.front().summaries;
    result.finalDrivingTheta = result.history.back().thetaBefore;
    result.totalSeconds = total.seconds();
    return result;
}

MpcgsResult estimateTheta(const Alignment& aln, const MpcgsOptions& opts, ThreadPool* pool) {
    return estimateTheta(Dataset::single(aln), opts, pool);
}

}  // namespace mpcgs
