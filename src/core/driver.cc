#include "core/driver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

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
// phase (0 = iteration start, 1 = mid-iteration: burn progress, per-locus
// sampling progress/stopped latches, then per-locus sampler + sink +
// monitor payloads).
//
// v2 stamps the locus roster (names, shapes, mutation scales) into the
// fingerprint and repeats every per-locus section L times; v1 files are
// the single-locus layout (no roster, one genealogy, one payload) and are
// read back as L = 1. emIterations is deliberately NOT part of the
// fingerprint: a resumed run may extend the EM horizon of the interrupted
// one.

void writeFingerprint(CheckpointWriter& w, const MpcgsOptions& opts, const Dataset& ds) {
    w.u32(static_cast<std::uint32_t>(opts.strategy));
    w.u64(opts.seed);
    w.u64(opts.samplesPerIteration);
    w.u64(opts.burnInFraction1000);
    w.u64(opts.gmhProposals);
    w.u64(opts.gmhSamplesPerSet);
    w.u64(opts.chains);
    w.doubles(opts.temperatures);
    w.str(opts.substModel);
    w.u32(0);  // slot of the removed cached serial-MH flag (see checkFingerprint)
    w.f64(opts.theta0);
    w.f64(opts.stopRhat);
    w.f64(opts.stopEss);
    w.u64(ds.locusCount());
    for (const Locus& locus : ds.loci()) {
        w.str(locus.name);
        w.u64(locus.alignment.sequenceCount());
        w.u64(locus.alignment.length());
        w.f64(locus.mutationScale);
    }
}

void checkFingerprint(CheckpointReader& r, const MpcgsOptions& opts, const Dataset& ds) {
    bool ok = true;
    ok &= r.u32() == static_cast<std::uint32_t>(opts.strategy);
    ok &= r.u64() == opts.seed;
    ok &= r.u64() == opts.samplesPerIteration;
    ok &= r.u64() == opts.burnInFraction1000;
    ok &= r.u64() == opts.gmhProposals;
    ok &= r.u64() == opts.gmhSamplesPerSet;
    ok &= r.u64() == opts.chains;
    ok &= r.doubles() == opts.temperatures;
    ok &= r.str() == opts.substModel;
    // A snapshot of the removed cached serial MH (slot value 1) stored a data
    // log-likelihood where the serial-MH sampler expects a log-posterior.
    ok &= r.u32() == 0;
    ok &= r.f64() == opts.theta0;
    ok &= r.f64() == opts.stopRhat;
    ok &= r.f64() == opts.stopEss;
    if (r.version() >= 2) {
        ok &= r.u64() == ds.locusCount();
        if (ok) {
            for (const Locus& locus : ds.loci()) {
                ok &= r.str() == locus.name;
                ok &= r.u64() == locus.alignment.sequenceCount();
                ok &= r.u64() == locus.alignment.length();
                ok &= r.f64() == locus.mutationScale;
            }
        }
    } else {
        // v1: single-locus fingerprint tail (sequence count + length).
        ok &= ds.locusCount() == 1;
        ok &= r.u64() == ds.locus(0).alignment.sequenceCount();
        ok &= r.u64() == ds.locus(0).alignment.length();
        ok &= ds.locus(0).mutationScale == 1.0;
    }
    if (!ok)
        throw ConfigError(
            "resume: checkpoint was written by an incompatible run configuration");
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
    if (opts.theta0 <= 0.0) throw ConfigError("options: theta0 must be positive");
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
/// ...) apply everywhere and are never rejected.
struct AlgoFlag {
    const char* flag;
    const char* modes;  ///< space-separated applicable modes
};

constexpr AlgoFlag kAlgoFlags[] = {
    {"particles", "smc pmmh"},
    {"resampling", "smc pmmh"},
    {"ess-threshold", "smc pmmh"},
    {"lik-backend", "smc pmmh"},
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
    const LocusProblemSet problems(dataset, liks);

    MpcgsResult result;
    double theta = opts.theta0;
    std::vector<Genealogy> current;
    current.reserve(L);
    for (std::size_t l = 0; l < L; ++l)
        current.push_back(initialGenealogy(dataset.locus(l).alignment,
                                           problems.at(l).effectiveTheta(opts.theta0)));
    std::size_t emStart = 0;

    // Mid-iteration resume payload stays open until the iteration's
    // samplers and sinks exist to load into.
    std::unique_ptr<CheckpointReader> resumeReader;
    bool resumeMidIteration = false;
    std::size_t resumeBurnDone = 0;
    std::vector<std::uint64_t> resumeSampleDone(L, 0);
    std::vector<std::uint8_t> resumeStopped(L, 0);

    if (opts.resume) {
        // Any CheckpointError while READING the snapshot context becomes a
        // ResumeError, so callers can fall back to a fresh run; config
        // mismatches (checkFingerprint) stay ConfigError and stay fatal.
        try {
            resumeReader = std::make_unique<CheckpointReader>(
                pickResumeSnapshot(opts.checkpointPath));
            resumeReader->enterSection("fingerprint");
            checkFingerprint(*resumeReader, opts, dataset);
            resumeReader->enterSection("context");
            emStart = resumeReader->u64();
            theta = resumeReader->f64();
            result.history = readHistory(*resumeReader);
            for (const EmIterationRecord& h : result.history)
                result.samplingSeconds += h.seconds;
            for (std::size_t l = 0; l < L; ++l) current[l] = readGenealogy(*resumeReader);
            if (resumeReader->u32() == 1) {
                resumeMidIteration = true;
                resumeBurnDone = resumeReader->u64();
                for (std::size_t l = 0; l < L; ++l) {
                    resumeSampleDone[l] = resumeReader->u64();
                    resumeStopped[l] = resumeReader->u32() != 0 ? 1 : 0;
                }
            } else {
                resumeReader.reset();
            }
        } catch (const CheckpointError& e) {
            throw ResumeError(e.what());
        }
        if (emStart >= opts.emIterations)
            throw ConfigError("resume: checkpoint already covers all requested EM iterations");
    }

    const RunGeometry geom = geometryFor(opts);
    std::vector<LocusFinal> finals(L);

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
        // with its own SplitMix64-derived stream family. With several loci
        // the loci axis carries the parallelism (samplers run pool-free
        // inside the lockstep rounds); a single locus keeps the pool for
        // its intra-strategy parallel sections, exactly the pre-dataset
        // configuration.
        const std::uint64_t seed = emSeed(opts, em);
        std::vector<std::unique_ptr<Sampler>> samplers;
        samplers.reserve(L);
        for (std::size_t l = 0; l < L; ++l)
            samplers.push_back(makeSampler(specFor(opts, locusStreamSeed(seed, l)),
                                           liks.at(l),
                                           problems.at(l).effectiveTheta(theta),
                                           std::move(current[l]), L == 1 ? pool : nullptr));
        std::vector<SummarySink> sinks(L);
        std::vector<ConvergenceMonitor> monitors(L);

        MultiLocusRun::Config cfg;
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
        if (!opts.checkpointPath.empty()) {
            cfg.checkpoint = [&, em](std::size_t burnDone,
                                     std::span<const std::uint64_t> sampleDone,
                                     std::span<const std::uint8_t> stopped) {
                withCheckpointRetry(opts.supervisor, [&] {
                    CheckpointWriter w(opts.checkpointPath);
                    w.beginSection("fingerprint");
                    writeFingerprint(w, opts, dataset);
                    w.beginSection("context");
                    w.u64(em);
                    w.f64(rec.thetaBefore);
                    writeHistory(w, result.history);
                    for (const Genealogy& g : emInit) writeGenealogy(w, g);
                    w.u32(1);  // mid-iteration
                    w.u64(burnDone);
                    for (std::size_t l = 0; l < L; ++l) {
                        w.u64(sampleDone[l]);
                        w.u32(stopped[l] ? 1 : 0);
                    }
                    for (std::size_t l = 0; l < L; ++l) {
                        w.beginSection("sampler." + std::to_string(l));
                        samplers[l]->save(w);
                    }
                    for (std::size_t l = 0; l < L; ++l) {
                        w.beginSection("sink." + std::to_string(l));
                        sinks[l].save(w);
                    }
                    for (std::size_t l = 0; l < L; ++l) {
                        w.beginSection("monitor." + std::to_string(l));
                        monitors[l].save(w);
                    }
                    w.commit();
                });
            };
        }

        std::vector<LocusSlot> slots(L);
        for (std::size_t l = 0; l < L; ++l)
            slots[l] = LocusSlot{samplers[l].get(), &sinks[l], &monitors[l]};
        MultiLocusRun run(std::move(slots), cfg);
        if (resumeMidIteration && em == emStart) {
            try {
                if (resumeReader->version() >= 2) {
                    for (std::size_t l = 0; l < L; ++l) {
                        resumeReader->enterSection("sampler." + std::to_string(l));
                        samplers[l]->load(*resumeReader);
                    }
                    for (std::size_t l = 0; l < L; ++l) {
                        resumeReader->enterSection("sink." + std::to_string(l));
                        sinks[l].load(*resumeReader);
                    }
                    for (std::size_t l = 0; l < L; ++l) {
                        resumeReader->enterSection("monitor." + std::to_string(l));
                        monitors[l].load(*resumeReader);
                    }
                } else {
                    // v1 interleaves nothing: one sampler, one sink, one monitor.
                    samplers[0]->load(*resumeReader);
                    sinks[0].load(*resumeReader);
                    monitors[0].load(*resumeReader);
                }
            } catch (const CheckpointError& e) {
                throw ResumeError(e.what());
            }
            run.restoreProgress(resumeBurnDone, resumeSampleDone, resumeStopped);
            resumeReader.reset();
        }

        const MultiLocusReport report = run.execute();
        rec.seconds = estep.seconds();
        result.samplingSeconds += rec.seconds;
        rec.samples = report.totalSamples();
        rec.stoppedEarly = report.allStoppedEarly();
        for (const LocusRunReport& lr : report.loci) {
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
            finals[l].drivingTheta = problems.at(l).effectiveTheta(rec.thetaBefore);
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
        if (!opts.checkpointPath.empty() && em + 1 < opts.emIterations) {
            withCheckpointRetry(opts.supervisor, [&] {
                CheckpointWriter w(opts.checkpointPath);
                w.beginSection("fingerprint");
                writeFingerprint(w, opts, dataset);
                w.beginSection("context");
                w.u64(em + 1);
                w.f64(theta);
                writeHistory(w, result.history);
                for (const Genealogy& g : current) writeGenealogy(w, g);
                w.u32(0);  // iteration boundary
                w.commit();
            });
        }
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
