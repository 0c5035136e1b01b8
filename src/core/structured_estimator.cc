#include "core/structured_estimator.h"

#include <cmath>
#include <memory>
#include <utility>

#include "core/lockstep_chains.h"
#include "core/structured_sampler.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "rng/splitmix.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {
namespace {

std::uint64_t emSeed(const StructuredOptions& opts, std::size_t em) {
    return opts.seed + em * 0x632BE59BD9B4E019ull;
}

void writeModel(CheckpointEncoder& w, const MigrationModel& m) {
    w.doubles(m.theta);
    w.doubles(m.mig);
}

MigrationModel readModel(CheckpointReader& r) {
    MigrationModel m;
    m.theta = r.doubles();
    m.mig = r.doubles();
    if (m.theta.empty() || m.mig.size() != m.theta.size() * m.theta.size())
        throw CheckpointError("corrupt snapshot: migration model shape mismatch");
    return m;
}

/// The run configuration a snapshot must match to resume. Left out on
/// purpose: the EM iteration count (a resumed run may extend the EM
/// horizon), the checkpoint interval and the supervisor.
CheckpointEncoder fingerprint(const StructuredOptions& opts, const Alignment& aln,
                              const std::vector<int>& tipDemes) {
    CheckpointEncoder f;
    f.u32(kStructuredSnapshotTag);
    f.u64(opts.seed);
    f.u64(opts.samplesPerIteration);
    f.u64(opts.burnInFraction1000);
    f.u64(opts.chains);
    f.f64(opts.pathRefreshProb);
    f.str(opts.substModel);
    f.f64(opts.stopRhat);
    f.f64(opts.stopEss);
    writeModel(f, opts.init);
    f.u64(tipDemes.size());
    for (const int d : tipDemes) f.u32(static_cast<std::uint32_t>(d));
    f.u64(aln.sequenceCount());
    f.u64(aln.length());
    return f;
}

void writeHistory(CheckpointWriter& w, const std::vector<StructuredEmRecord>& history) {
    w.u64(history.size());
    for (const StructuredEmRecord& h : history) {
        writeModel(w, h.before);
        writeModel(w, h.after);
        w.f64(h.logLAtMax);
        w.f64(h.seconds);
        w.f64(h.moveRate);
        w.u64(h.samples);
        w.f64(h.rhat);
        w.f64(h.ess);
        w.u32(h.stoppedEarly ? 1 : 0);
    }
}

std::vector<StructuredEmRecord> readHistory(CheckpointReader& r) {
    std::vector<StructuredEmRecord> history(r.u64());
    for (StructuredEmRecord& h : history) {
        h.before = readModel(r);
        h.after = readModel(r);
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

void validateStructuredOptions(const StructuredOptions& opts) {
    opts.init.validate();
    if (opts.init.demeCount() < 2)
        throw ConfigError("structured options: need at least 2 demes");
    if (opts.emIterations == 0)
        throw ConfigError("structured options: need >= 1 EM iteration");
    if (opts.samplesPerIteration == 0)
        throw ConfigError("structured options: need >= 1 sample per EM iteration");
    if (opts.burnInFraction1000 > 1000)
        throw ConfigError("structured options: burn-in permille must be <= 1000");
    if (opts.chains == 0) throw ConfigError("structured options: need >= 1 chain");
    if (opts.pathRefreshProb < 0.0 || opts.pathRefreshProb >= 1.0)
        throw ConfigError("structured options: pathRefreshProb must be in [0, 1)");
    if (opts.resume && opts.checkpointPath.empty())
        throw ConfigError("structured options: resume requires a checkpointPath");
}

StructuredResult estimateStructured(const Alignment& aln, const std::vector<int>& tipDemes,
                                    const StructuredOptions& opts, ThreadPool* pool) {
    validateStructuredOptions(opts);
    const int K = opts.init.demeCount();
    if (tipDemes.size() != aln.sequenceCount())
        throw ConfigError("estimateStructured: one deme assignment per sequence required");
    for (const int d : tipDemes)
        if (d < 0 || d >= K)
            throw ConfigError("estimateStructured: tip deme out of range");
    bool allInOneDeme = false;
    for (int k = 0; k < K && !allInOneDeme; ++k) {
        int n = 0;
        for (const int d : tipDemes) n += d == k ? 1 : 0;
        allInOneDeme = n == static_cast<int>(tipDemes.size());
    }
    if (allInOneDeme)
        throw ConfigError(
            "estimateStructured: all sequences in one deme — migration rates are "
            "unidentifiable; run the single-population pipeline instead");

    Timer total;
    const std::unique_ptr<SubstModel> model = makeInferenceModel(opts.substModel, aln);
    const DataLikelihood lik(aln, *model);

    StructuredResult result;
    MigrationModel driving = opts.init;

    // Warm start: a seeded draw from the structured prior at the driving
    // values (labels must be consistent from step one; data-independent
    // initialization is standard MCMC warmup and burn-in absorbs it).
    Mt19937 initRng = Mt19937::fromSplitMix(splitMix64At(opts.seed, 0x53545243ull));
    StructuredGenealogy current = simulateStructuredCoalescent(tipDemes, driving, initRng);
    current.tree().setTipNames(aln.names());

    std::size_t emStart = 0;
    // A mid-iteration snapshot stays open at its phase until the
    // iteration's run exists to load into.
    std::unique_ptr<CheckpointReader> resumeReader;

    if (opts.resume) {
        // Snapshot READ failures become ResumeError so callers can fall
        // back to a fresh run; fingerprint mismatches stay ConfigError.
        try {
            resumeReader = std::make_unique<CheckpointReader>(
                pickResumeSnapshot(opts.checkpointPath));
            if (resumeReader->version() < 3)
                throw ConfigError(
                    "resume: structured runs need a format v3 snapshot (found version " +
                    std::to_string(resumeReader->version()) + ")");
            if (!resumeReader->fingerprintMatches(fingerprint(opts, aln, tipDemes)))
                throw ConfigError(
                    "resume: checkpoint was written by an incompatible structured run");
            resumeReader->enterSection("context");
            emStart = resumeReader->u64();
            driving = readModel(*resumeReader);
            result.history = readHistory(*resumeReader);
            for (const StructuredEmRecord& h : result.history)
                result.samplingSeconds += h.seconds;
            current = readStructuredGenealogy(*resumeReader, K);
            if (resumeReader->u32() != 1) resumeReader.reset();  // iteration boundary
        } catch (const CheckpointError& e) {
            throw ResumeError(e.what());
        }
        if (emStart >= opts.emIterations)
            throw ConfigError(
                "resume: checkpoint already covers all requested EM iterations");
    }

    // Tick budgets mirror the MultiChain strategy: one lockstep round per
    // tick, burn-in as the configured permille of the serial step count.
    const std::size_t capTicks =
        (opts.samplesPerIteration + opts.chains - 1) / opts.chains;
    const std::size_t burnTicks =
        (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;

    // Every snapshot: the context, then the phase word and, mid-iteration
    // (`run` set), the E-step's phase.
    const auto snapshot = [&](std::size_t em, const MigrationModel& model,
                              const StructuredGenealogy& warmStart, const SamplerRun* run) {
        withCheckpointRetry(opts.supervisor, [&] {
            CheckpointWriter w(opts.checkpointPath);
            w.fingerprint(fingerprint(opts, aln, tipDemes));
            w.beginSection("context");
            w.u64(em);
            writeModel(w, model);
            writeHistory(w, result.history);
            writeStructuredGenealogy(w, warmStart);
            w.u32(run ? 1 : 0);
            if (run) run->save(w);
            w.commit();
        });
    };

    for (std::size_t em = emStart; em < opts.emIterations; ++em) {
        // EM-boundary stop check, mirroring estimateTheta.
        if (opts.supervisor && opts.supervisor->stopRequested())
            throw InterruptedError(
                "stop requested at EM iteration boundary (" + std::to_string(em) + ")",
                !opts.checkpointPath.empty() && em > emStart);

        StructuredEmRecord rec;
        rec.before = driving;

        Timer estep;
        const StructuredGenealogy emInit = current;
        LockstepChains<StructuredMhProblem> sampler(
            StructuredMhProblem(lik, driving, opts.pathRefreshProb), emInit, opts.chains,
            emSeed(opts, em), kStructuredSnapshotTag, pool);
        StructuredSummarySink sink(K);
        ConvergenceMonitor monitor;

        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        cfg.stopping.rhatBelow = opts.stopRhat;
        cfg.stopping.essAtLeast = opts.stopEss;
        cfg.checkpointInterval = opts.checkpointIntervalTicks;
        if (opts.supervisor) cfg.stopRequested = opts.supervisor->stopCallback();
        cfg.numeric.enabled = true;
        cfg.numeric.theta = driving.theta.empty() ? 0.0 : driving.theta.front();
        cfg.numeric.seed = opts.seed;
        cfg.numeric.phase =
            "estimateStructured E-step (EM iteration " + std::to_string(em) + ")";
        if (!opts.checkpointPath.empty())
            cfg.checkpoint = [&, em](const SamplerRun& run) {
                snapshot(em, rec.before, emInit, &run);
            };

        SamplerRun run({{&sampler, &sink, &monitor, ""}}, cfg);
        if (resumeReader) {  // only ever the first iteration's
            run.load(*resumeReader);
            resumeReader.reset();
        }

        const SamplerRunReport report = run.execute().front();
        rec.seconds = estep.seconds();
        result.samplingSeconds += rec.seconds;
        rec.samples = report.samples;
        rec.stoppedEarly = report.stoppedEarly;
        rec.rhat = report.rhat;
        rec.ess = report.ess;
        rec.moveRate = sampler.stats().moveRate();

        current = sampler.front();

        // Profile M-step over the structured relative likelihood.
        result.finalSummaries = sink.chainMajor();
        result.finalDriving = rec.before;
        const StructuredRelativeLikelihood rl(result.finalSummaries, rec.before);
        const StructuredMleResult mle = maximizeStructured(rl, driving, 1e-5, 10, pool);
        driving = mle.model;
        rec.after = driving;
        rec.logLAtMax = mle.logL;
        result.history.push_back(rec);

        if (!opts.checkpointPath.empty() && em + 1 < opts.emIterations)
            snapshot(em + 1, driving, current, nullptr);
    }

    result.estimate = driving;
    const StructuredRelativeLikelihood rl(result.finalSummaries, result.finalDriving);
    const int coords = structuredCoordinateCount(K);
    result.support.reserve(static_cast<std::size_t>(coords));
    for (int c = 0; c < coords; ++c)
        result.support.push_back(structuredSupportInterval(rl, result.estimate, c, 1.92, pool));
    result.totalSeconds = total.seconds();
    return result;
}

}  // namespace mpcgs
