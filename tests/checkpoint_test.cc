// Checkpoint/resume: primitive round-trips, snapshot integrity, and
// bitwise-identical continuation of interrupted runs for every strategy —
// both at the SamplerRun level (mid-sampling kill) and through
// estimateTheta (EM-boundary resume) — plus each run kind's fingerprint:
// its field order, and the refusal of a changed or foreign snapshot — and
// the sections of each run kind's phase-end snapshot.
#include "mcmc/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/driver.h"
#include "core/lockstep_chains.h"
#include "core/samplers.h"
#include "core/smc_estimator.h"
#include "core/structured_estimator.h"
#include "core/structured_sampler.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/online_update.h"

namespace mpcgs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
}

/// Removes a snapshot and its previous generation.
void removeSnapshot(const std::string& path) {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

TEST(CheckpointIoTest, PrimitivesRoundTrip) {
    const std::string path = tempPath("prims.ckpt");
    {
        CheckpointWriter w(path);
        w.u32(0xDEADBEEFu);
        w.u64(0x0123456789ABCDEFull);
        w.f64(-1.5e-300);
        w.str("sampler runtime");
        w.doubles(std::vector<double>{1.0, -2.5, 3.25});
        w.commit();
    }
    CheckpointReader r(path);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.str(), "sampler runtime");
    EXPECT_EQ(r.doubles(), (std::vector<double>{1.0, -2.5, 3.25}));
}

TEST(CheckpointIoTest, MissingAndCorruptFilesThrow) {
    EXPECT_THROW(CheckpointReader("/nonexistent/nowhere.ckpt"), CheckpointError);
    const std::string path = tempPath("corrupt.ckpt");
    {
        std::ofstream f(path, std::ios::binary);
        f << "not a snapshot at all";
    }
    EXPECT_THROW(CheckpointReader r(path), CheckpointError);
    // Truncation mid-record is detected on read.
    {
        CheckpointWriter w(path);
        w.u32(7);
        w.commit();
    }
    CheckpointReader r(path);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u64(), CheckpointError);
}

TEST(CheckpointIoTest, CorruptLengthFieldsAreRejectedBeforeAllocating) {
    // A garbage length word must raise CheckpointError, not attempt a
    // gigantic allocation.
    const std::string path = tempPath("badlen.ckpt");
    {
        CheckpointWriter w(path);
        w.u64(0x7FFFFFFFFFFFFFFFull);
        w.commit();
    }
    {
        CheckpointReader r(path);
        EXPECT_THROW(r.str(), CheckpointError);
    }
    {
        CheckpointReader r(path);
        EXPECT_THROW(r.doubles(), CheckpointError);
    }
    {
        CheckpointReader r(path);
        EXPECT_THROW(readGenealogy(r), CheckpointError);
    }
}

TEST(CheckpointIoTest, UncommittedWriterLeavesNoSnapshot) {
    const std::string path = tempPath("uncommitted.ckpt");
    {
        CheckpointWriter w(path);
        w.u64(1);
        // no commit: simulated crash mid-write
    }
    EXPECT_FALSE(checkpointExists(path));
}

TEST(CheckpointIoTest, GenealogyRoundTripsExactly) {
    Mt19937 rng(41);
    const Genealogy g = simulateCoalescent(9, 0.8, rng);
    const std::string path = tempPath("genealogy.ckpt");
    {
        CheckpointWriter w(path);
        writeGenealogy(w, g);
        w.commit();
    }
    CheckpointReader r(path);
    const Genealogy back = readGenealogy(r);
    EXPECT_EQ(g, back);
    EXPECT_NO_THROW(back.validate());
}

TEST(CheckpointIoTest, RngStateResumesBitwise) {
    Mt19937 rng = Mt19937::fromSplitMix(0xFEEDFACEull);
    for (int i = 0; i < 1000; ++i) rng.nextU32();  // land mid-buffer
    const std::string path = tempPath("rng.ckpt");
    {
        CheckpointWriter w(path);
        writeRng(w, rng);
        w.commit();
    }
    Mt19937 restored;
    CheckpointReader r(path);
    readRng(r, restored);
    for (int i = 0; i < 2000; ++i) EXPECT_EQ(rng.nextU32(), restored.nextU32());
}

struct RunArtifacts {
    std::vector<IntervalSummary> summaries;
    Genealogy continuation;
    SamplerStats stats;
    std::vector<std::vector<double>> logPosteriors;  ///< per chain, as streamed
};

std::vector<std::vector<double>> tracesOf(const ConvergenceMonitor& monitor) {
    std::vector<std::vector<double>> out;
    for (std::uint32_t c = 0; c < monitor.chainCount(); ++c) out.push_back(monitor.trace(c));
    return out;
}

void expectBitwiseEqual(const RunArtifacts& a, const RunArtifacts& b) {
    ASSERT_EQ(a.summaries.size(), b.summaries.size());
    for (std::size_t i = 0; i < a.summaries.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.summaries[i].weightedSum, b.summaries[i].weightedSum);
        EXPECT_EQ(a.summaries[i].events, b.summaries[i].events);
    }
    EXPECT_EQ(a.continuation, b.continuation);
    EXPECT_EQ(a.stats.steps, b.stats.steps);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
    EXPECT_EQ(a.stats.swapsProposed, b.stats.swapsProposed);
    EXPECT_EQ(a.stats.swapsAccepted, b.stats.swapsAccepted);
    EXPECT_EQ(a.logPosteriors, b.logPosteriors);
}

/// Mid-sampling kill/resume at the SamplerRun level (one slot): run to the
/// cap in one go, versus "crash" after killTicks and continue from the
/// snapshot. Both must produce the identical sample stream and final state.
/// Every MH-family chain rebuilds its likelihood arena after load(), which
/// the structured case (path refresh on) covers for labelled genealogies.
enum class ResumeCase { Gmh, SerialMh, MultiChain, HeatedMh, Structured };

class MidRunResumeTest : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(MidRunResumeTest, ResumedRunIsBitwiseIdentical) {
    const ResumeCase kind = GetParam();
    const Alignment aln = simulateData(7, 1.0, 150, 42);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    const Genealogy init = initialGenealogy(aln, 0.5);

    SamplerSpec spec;
    spec.seed = 19;
    spec.chains = 3;
    spec.gmhProposals = 6;
    spec.gmhSamplesPerSet = 6;
    const std::size_t burnTicks = 20;
    const std::size_t capTicks = 60;
    const std::size_t killTicks = 23;  // not a checkpoint-interval multiple

    MigrationModel migration(2, 0.5, 0.8);
    Mt19937 labelRng(43);
    const StructuredGenealogy structuredInit =
        simulateStructuredCoalescent({0, 0, 0, 1, 1, 1, 1}, migration, labelRng);

    const auto makeFresh = [&]() -> std::unique_ptr<Sampler> {
        switch (kind) {
            case ResumeCase::Gmh: spec.strategy = Strategy::Gmh; break;
            case ResumeCase::SerialMh: spec.strategy = Strategy::SerialMh; break;
            case ResumeCase::MultiChain: spec.strategy = Strategy::MultiChain; break;
            case ResumeCase::HeatedMh: spec.strategy = Strategy::HeatedMh; break;
            case ResumeCase::Structured:
                return std::make_unique<LockstepChains<StructuredMhProblem>>(
                    StructuredMhProblem(lik, migration, /*pathRefreshProb=*/0.25),
                    structuredInit, spec.chains, spec.seed, kStructuredSnapshotTag, nullptr);
        }
        return makeSampler(spec, lik, 0.5, init, nullptr);
    };

    // Reference: uninterrupted run.
    RunArtifacts full;
    {
        auto sampler = makeFresh();
        SummarySink sink;
        ConvergenceMonitor monitor;
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        SamplerRun run({{sampler.get(), &sink, &monitor, ""}}, cfg);
        run.execute();
        full = RunArtifacts{sink.chainMajor(), sampler->continuation(), sampler->stats(),
                            tracesOf(monitor)};
    }

    // Interrupted run: snapshot every tick, stop ("crash") at killTicks.
    const std::string path = tempPath("midrun.ckpt");
    {
        auto sampler = makeFresh();
        SummarySink sink;
        ConvergenceMonitor monitor;
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = killTicks;
        cfg.checkpointInterval = 1;
        cfg.checkpoint = [&](const SamplerRun& run) {
            CheckpointWriter w(path);
            run.save(w);
            w.commit();
        };
        SamplerRun run({{sampler.get(), &sink, &monitor, ""}}, cfg);
        run.execute();
    }

    // Resume from the snapshot and run out the remaining ticks.
    RunArtifacts resumed;
    {
        CheckpointReader progress(path);
        EXPECT_EQ(progress.u64(), burnTicks);  // burn ticks done
        EXPECT_EQ(progress.u64(), killTicks);  // sampling ticks done
        auto sampler = makeFresh();
        SummarySink sink;
        ConvergenceMonitor monitor;
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        SamplerRun run({{sampler.get(), &sink, &monitor, ""}}, cfg);
        CheckpointReader r(path);
        run.load(r);
        run.execute();
        resumed = RunArtifacts{sink.chainMajor(), sampler->continuation(), sampler->stats(),
                               tracesOf(monitor)};
    }

    expectBitwiseEqual(full, resumed);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MidRunResumeTest,
    ::testing::Values(ResumeCase::Gmh, ResumeCase::SerialMh, ResumeCase::MultiChain,
                      ResumeCase::HeatedMh, ResumeCase::Structured),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
        switch (info.param) {
            case ResumeCase::Gmh: return std::string("Gmh");
            case ResumeCase::SerialMh: return std::string("SerialMh");
            case ResumeCase::MultiChain: return std::string("MultiChain");
            case ResumeCase::HeatedMh: return std::string("HeatedMh");
            case ResumeCase::Structured: return std::string("Structured");
        }
        return std::string("Unknown");
    });

/// Runs `sampler` through one SamplerRun slot and saves it into a
/// one-section snapshot at `path`.
void runAndSave(Sampler& sampler, ConvergenceMonitor& monitor, std::size_t burnTicks,
                std::size_t sampleTicks, const std::string& path) {
    SummarySink sink;
    SamplerRun::Config cfg;
    cfg.burnInTicks = burnTicks;
    cfg.sampleTicks = sampleTicks;
    SamplerRun({{&sampler, &sink, &monitor, ""}}, cfg).execute();
    CheckpointWriter w(path);
    w.beginSection("sampler");
    sampler.save(w);
    w.commit();
}

/// The rest of one chain record after its state: log-posterior, steps,
/// accepts and RNG.
struct RecordTail {
    double logPosterior;
    std::uint64_t steps;
    std::uint64_t accepted;
};
RecordTail readRecordTail(CheckpointReader& r) {
    const RecordTail t{r.f64(), r.u64(), r.u64()};  // braced init reads in order
    Mt19937 rng;
    readRng(r, rng);
    EXPECT_LE(t.accepted, t.steps);
    return t;
}

/// The chain ensembles' payloads, read back field by field in the
/// documented order (core/lockstep_chains.h): tag, chain count, one record
/// per chain (state, log-posterior, steps, accepts, RNG), then the trailer
/// — sampling rounds for the lockstep ensembles; the swap stream, sweeps,
/// swap counters and emitted samples for MC^3. Snapshots written by
/// earlier builds resume only while this order holds.
TEST(SnapshotLayoutTest, ChainPayloadsKeepTheirFieldOrder) {
    const Alignment aln = simulateData(7, 1.0, 150, 42);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    const Genealogy init = initialGenealogy(aln, 0.5);
    const std::size_t burnTicks = 5, sampleTicks = 12, ticks = burnTicks + sampleTicks;
    SamplerSpec spec;
    spec.seed = 23;
    spec.chains = 3;

    {
        SCOPED_TRACE("multichain");
        spec.strategy = Strategy::MultiChain;
        const auto sampler = makeSampler(spec, lik, 0.5, init, nullptr);
        ConvergenceMonitor monitor;
        const std::string path = tempPath("layout_multichain.ckpt");
        runAndSave(*sampler, monitor, burnTicks, sampleTicks, path);
        CheckpointReader r(path);
        r.enterSection("sampler");
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(Strategy::MultiChain));
        ASSERT_EQ(r.u64(), 3u);
        std::uint64_t accepted = 0;
        for (std::uint32_t c = 0; c < 3; ++c) {
            const Genealogy g = readGenealogy(r);
            if (c == 0) {
                EXPECT_EQ(g, sampler->continuation());
            }
            const RecordTail t = readRecordTail(r);
            EXPECT_EQ(t.logPosterior, monitor.trace(c).back());
            EXPECT_EQ(t.steps, ticks);
            accepted += t.accepted;
        }
        EXPECT_EQ(accepted, sampler->stats().accepted);
        EXPECT_EQ(r.u64(), sampleTicks);
        EXPECT_EQ(r.remaining(), 0u);
    }
    {
        SCOPED_TRACE("structured");
        const MigrationModel migration(2, 0.5, 0.8);
        Mt19937 labelRng(43);
        const StructuredGenealogy labelled =
            simulateStructuredCoalescent({0, 0, 0, 1, 1, 1, 1}, migration, labelRng);
        LockstepChains<StructuredMhProblem> sampler(StructuredMhProblem(lik, migration, 0.25),
                                                    labelled, 3, spec.seed,
                                                    kStructuredSnapshotTag, nullptr);
        ConvergenceMonitor monitor;
        const std::string path = tempPath("layout_structured.ckpt");
        runAndSave(sampler, monitor, burnTicks, sampleTicks, path);
        CheckpointReader r(path);
        r.enterSection("sampler");
        EXPECT_EQ(r.u32(), kStructuredSnapshotTag);
        ASSERT_EQ(r.u64(), 3u);
        std::uint64_t accepted = 0;
        for (std::uint32_t c = 0; c < 3; ++c) {
            const StructuredGenealogy g = readStructuredGenealogy(r, 2);
            if (c == 0) {
                EXPECT_EQ(g, sampler.front());
            }
            const RecordTail t = readRecordTail(r);
            EXPECT_EQ(t.logPosterior, monitor.trace(c).back());
            EXPECT_EQ(t.steps, ticks);
            accepted += t.accepted;
        }
        EXPECT_EQ(accepted, sampler.stats().accepted);
        EXPECT_EQ(r.u64(), sampleTicks);
        EXPECT_EQ(r.remaining(), 0u);
    }
    {
        SCOPED_TRACE("heated");
        spec.strategy = Strategy::HeatedMh;
        spec.swapInterval = 2;
        const auto sampler = makeSampler(spec, lik, 0.5, init, nullptr);
        ConvergenceMonitor monitor;
        const std::string path = tempPath("layout_heated.ckpt");
        runAndSave(*sampler, monitor, burnTicks, sampleTicks, path);
        const SamplerStats stats = sampler->stats();
        CheckpointReader r(path);
        r.enterSection("sampler");
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(Strategy::HeatedMh));
        ASSERT_EQ(r.u64(), spec.temperatures.size());
        std::uint64_t accepted = 0;
        for (std::size_t c = 0; c < spec.temperatures.size(); ++c) {
            const Genealogy g = readGenealogy(r);
            const RecordTail t = readRecordTail(r);
            if (c == 0) {  // only the cold chain is sampled
                EXPECT_EQ(g, sampler->continuation());
                EXPECT_EQ(t.logPosterior, monitor.trace(0).back());
            }
            EXPECT_TRUE(std::isfinite(t.logPosterior));
            EXPECT_EQ(t.steps, ticks);
            accepted += t.accepted;
        }
        EXPECT_EQ(accepted, stats.accepted);
        Mt19937 swapRng;
        readRng(r, swapRng);
        EXPECT_EQ(r.u64(), ticks);  // sweeps
        EXPECT_EQ(r.u64(), stats.swapsProposed);
        EXPECT_EQ(r.u64(), stats.swapsAccepted);
        EXPECT_GT(stats.swapsProposed, 0u);
        EXPECT_EQ(r.u64(), sampleTicks);  // emitted samples
        EXPECT_EQ(r.remaining(), 0u);
    }
}

/// The locus roster that closes the multi-locus fingerprints: locus count,
/// then name, sequence count, length and mutation scale per locus.
void expectLocusRoster(CheckpointReader& r, const Dataset& ds) {
    ASSERT_EQ(r.u64(), ds.locusCount());
    for (const Locus& locus : ds.loci()) {
        EXPECT_EQ(r.str(), locus.name);
        EXPECT_EQ(r.u64(), locus.alignment.sequenceCount());
        EXPECT_EQ(r.u64(), locus.alignment.length());
        EXPECT_EQ(r.f64(), locus.mutationScale);
    }
}

/// Each run kind's fingerprint section, read back field by field in the
/// order its layout comment documents (core/driver.cc,
/// core/structured_estimator.cc, core/smc_estimator.cc). A resume compares
/// the stored section with the run's own encoding byte for byte, so
/// snapshots written by earlier builds resume only while this order holds.
TEST(SnapshotLayoutTest, FingerprintsKeepTheirFieldOrder) {
    Dataset ds;
    ds.add(Locus{"alpha", simulateData(6, 1.0, 90, 51), 1.0, {}});
    ds.add(Locus{"beta", simulateData(6, 1.0, 70, 52), 0.5, {}});

    {
        SCOPED_TRACE("estimateTheta");
        MpcgsOptions o;
        o.theta0 = 0.6;
        o.emIterations = 1;
        o.samplesPerIteration = 60;
        o.strategy = Strategy::MultiChain;
        o.chains = 2;
        o.seed = 5;
        o.stopRhat = 1.5;
        o.stopEss = 1e6;  // with the R-hat rule: never fires
        o.checkpointPath = tempPath("fp_mcmc.ckpt");
        o.checkpointIntervalTicks = 5;
        estimateTheta(ds, o);
        CheckpointReader r(o.checkpointPath);
        r.enterSection("fingerprint");
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(o.strategy));
        EXPECT_EQ(r.u64(), o.seed);
        EXPECT_EQ(r.u64(), o.samplesPerIteration);
        EXPECT_EQ(r.u64(), o.burnInFraction1000);
        EXPECT_EQ(r.u64(), o.gmhProposals);
        EXPECT_EQ(r.u64(), o.gmhSamplesPerSet);
        EXPECT_EQ(r.u64(), o.chains);
        EXPECT_EQ(r.doubles(), o.temperatures);
        EXPECT_EQ(r.str(), o.substModel);
        EXPECT_EQ(r.u32(), 0u);  // slot of the removed cached serial-MH flag
        EXPECT_EQ(r.f64(), o.theta0);
        EXPECT_EQ(r.f64(), o.stopRhat);
        EXPECT_EQ(r.f64(), o.stopEss);
        expectLocusRoster(r, ds);
        EXPECT_EQ(r.remaining(), 0u);
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("estimateStructured");
        const Alignment& aln = ds.locus(0).alignment;
        const std::vector<int> demes{0, 0, 0, 1, 1, 1};
        StructuredOptions o;
        o.init = MigrationModel(2, 0.7, 0.9);
        o.emIterations = 1;
        o.samplesPerIteration = 60;
        o.chains = 2;
        o.seed = 6;
        o.stopRhat = 1.5;
        o.stopEss = 1e6;
        o.checkpointPath = tempPath("fp_structured.ckpt");
        o.checkpointIntervalTicks = 5;
        estimateStructured(aln, demes, o);
        CheckpointReader r(o.checkpointPath);
        r.enterSection("fingerprint");
        EXPECT_EQ(r.u32(), kStructuredSnapshotTag);
        EXPECT_EQ(r.u64(), o.seed);
        EXPECT_EQ(r.u64(), o.samplesPerIteration);
        EXPECT_EQ(r.u64(), o.burnInFraction1000);
        EXPECT_EQ(r.u64(), o.chains);
        EXPECT_EQ(r.f64(), o.pathRefreshProb);
        EXPECT_EQ(r.str(), o.substModel);
        EXPECT_EQ(r.f64(), o.stopRhat);
        EXPECT_EQ(r.f64(), o.stopEss);
        EXPECT_EQ(r.doubles(), o.init.theta);
        EXPECT_EQ(r.doubles(), o.init.mig);
        ASSERT_EQ(r.u64(), demes.size());
        for (const int d : demes) EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(d));
        EXPECT_EQ(r.u64(), aln.sequenceCount());
        EXPECT_EQ(r.u64(), aln.length());
        EXPECT_EQ(r.remaining(), 0u);
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("runPmmh");
        PmmhEstimateOptions o;
        o.theta0 = 0.6;
        o.samples = 8;
        o.pmmh.chains = 2;
        o.pmmh.seed = 7;
        o.pmmh.smc.particles = 16;
        o.checkpointPath = tempPath("fp_pmmh.ckpt");
        o.checkpointIntervalTicks = 1;
        runPmmh(ds, o);
        CheckpointReader r(o.checkpointPath);
        r.enterSection("fingerprint");
        EXPECT_EQ(r.u32(), kPmmhSnapshotTag);
        EXPECT_EQ(r.u64(), o.pmmh.seed);
        EXPECT_EQ(r.u64(), o.pmmh.chains);
        EXPECT_EQ(r.u64(), o.pmmh.smc.particles);
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(o.pmmh.smc.scheme));
        EXPECT_EQ(r.f64(), o.pmmh.smc.essThreshold);
        EXPECT_EQ(r.f64(), o.pmmh.proposalSigma);
        EXPECT_EQ(r.f64(), o.pmmh.thetaMin);
        EXPECT_EQ(r.f64(), o.pmmh.thetaMax);
        EXPECT_EQ(r.f64(), o.theta0);
        EXPECT_EQ(r.u64(), o.burnInFraction1000);
        EXPECT_EQ(r.str(), o.substModel);
        expectLocusRoster(r, ds);
        EXPECT_EQ(r.remaining(), 0u);
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("estimateThetaSmc");
        SmcEstimateOptions o;
        o.theta0 = 0.6;
        o.seed = 8;
        o.smc.particles = 16;
        o.checkpointPath = tempPath("fp_smc.ckpt");
        o.checkpointIntervalEvals = 1;
        estimateThetaSmc(ds, o);
        CheckpointReader r(o.checkpointPath);
        r.enterSection("fingerprint");
        EXPECT_EQ(r.u32(), 0x5A434D53u);  // "SMCZ"
        EXPECT_EQ(r.u64(), o.seed);
        EXPECT_EQ(r.u64(), o.smc.particles);
        EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(o.smc.scheme));
        EXPECT_EQ(r.f64(), o.smc.essThreshold);
        EXPECT_EQ(r.f64(), o.theta0);
        EXPECT_EQ(r.str(), o.substModel);
        expectLocusRoster(r, ds);
        EXPECT_EQ(r.remaining(), 0u);
        removeSnapshot(o.checkpointPath);
    }
}

/// Walks every section of the snapshot at `path` and returns their names.
/// The context section goes to `readContext`, which must consume it whole.
std::vector<std::string> walkSections(const std::string& path,
                                      const std::function<void(CheckpointReader&)>& readContext) {
    CheckpointReader r(path);
    std::vector<std::string> names;
    for (std::string name = r.nextSection(); !name.empty(); name = r.nextSection()) {
        names.push_back(name);
        if (name != "context") continue;
        readContext(r);
        EXPECT_EQ(r.remaining(), 0u);
    }
    return names;
}

/// The phase-end snapshot of one EM iteration (one PMMH phase) of each run
/// kind: the context the estimator writes, closed by the phase's progress
/// words (burn ticks done; per slot, sampling ticks done and the stopped
/// latch), then the sampler, sink and monitor sections grouped by kind.
/// Snapshots written by earlier builds resume only while this holds.
TEST(SnapshotLayoutTest, PhaseEndSnapshotsKeepTheirSections) {
    Dataset ds;
    ds.add(Locus{"alpha", simulateData(6, 1.0, 90, 51), 1.0, {}});
    ds.add(Locus{"beta", simulateData(6, 1.0, 70, 52), 0.5, {}});
    // 60 samples: 30 ticks of 2 chains, after ceil(60 * 100 / 1000) burn ticks.
    const std::uint64_t burnTicks = 6, capTicks = 30;

    {
        SCOPED_TRACE("estimateTheta, 2 loci");
        MpcgsOptions o;
        o.theta0 = 0.6;
        o.emIterations = 1;
        o.samplesPerIteration = 60;
        o.strategy = Strategy::MultiChain;
        o.chains = 2;
        o.seed = 5;
        o.checkpointPath = tempPath("phase_mcmc.ckpt");
        o.checkpointIntervalTicks = 7;
        estimateTheta(ds, o);
        const auto names = walkSections(o.checkpointPath, [&](CheckpointReader& r) {
            EXPECT_EQ(r.u64(), 0u);        // EM index
            EXPECT_EQ(r.f64(), o.theta0);  // driving theta
            EXPECT_EQ(r.u64(), 0u);        // history records
            for (const Locus& locus : ds.loci())  // warm starts
                EXPECT_EQ(readGenealogy(r),
                          initialGenealogy(locus.alignment, o.theta0 * locus.mutationScale));
            EXPECT_EQ(r.u32(), 1u);  // mid-iteration
            EXPECT_EQ(r.u64(), burnTicks);
            for (std::size_t l = 0; l < ds.locusCount(); ++l) {
                EXPECT_EQ(r.u64(), capTicks);
                EXPECT_EQ(r.u32(), 0u);  // stopped latch
            }
        });
        EXPECT_EQ(names, (std::vector<std::string>{"fingerprint", "context", "sampler.0",
                                                   "sampler.1", "sink.0", "sink.1",
                                                   "monitor.0", "monitor.1"}));
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("estimateStructured");
        const std::vector<int> demes{0, 0, 0, 1, 1, 1};
        StructuredOptions o;
        o.init = MigrationModel(2, 0.7, 0.9);
        o.emIterations = 1;
        o.samplesPerIteration = 60;
        o.chains = 2;
        o.seed = 6;
        o.checkpointPath = tempPath("phase_structured.ckpt");
        o.checkpointIntervalTicks = 7;
        estimateStructured(ds.locus(0).alignment, demes, o);
        const auto names = walkSections(o.checkpointPath, [&](CheckpointReader& r) {
            EXPECT_EQ(r.u64(), 0u);  // EM index
            EXPECT_EQ(r.doubles(), o.init.theta);
            EXPECT_EQ(r.doubles(), o.init.mig);
            EXPECT_EQ(r.u64(), 0u);  // history records
            EXPECT_EQ(readStructuredGenealogy(r, 2).tree().tipCount(), 6);  // warm start
            EXPECT_EQ(r.u32(), 1u);  // mid-iteration
            EXPECT_EQ(r.u64(), burnTicks);
            EXPECT_EQ(r.u64(), capTicks);
            EXPECT_EQ(r.u32(), 0u);  // stopped latch
        });
        EXPECT_EQ(names, (std::vector<std::string>{"fingerprint", "context", "sampler", "sink",
                                                   "monitor"}));
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("runPmmh");
        PmmhEstimateOptions o;
        o.theta0 = 0.6;
        o.samples = 8;  // 4 ticks of 2 chains, after ceil(4 * 100 / 1000) burn ticks
        o.pmmh.chains = 2;
        o.pmmh.seed = 7;
        o.pmmh.smc.particles = 16;
        o.checkpointPath = tempPath("phase_pmmh.ckpt");
        o.checkpointIntervalTicks = 3;
        runPmmh(ds, o);
        const auto names = walkSections(o.checkpointPath, [&](CheckpointReader& r) {
            EXPECT_EQ(r.remaining(), 28u);
            EXPECT_EQ(r.u64(), 1u);  // frozen burn geometry
            EXPECT_EQ(r.u64(), 1u);  // burn ticks done
            EXPECT_EQ(r.u64(), 4u);
            EXPECT_EQ(r.u32(), 0u);  // stopped latch
        });
        EXPECT_EQ(names, (std::vector<std::string>{"fingerprint", "context", "sampler",
                                                   "monitor"}));
        removeSnapshot(o.checkpointPath);
    }
}

TEST(CheckpointResumeTest, LoadingIntoWrongStrategyThrows) {
    const Alignment aln = simulateData(6, 1.0, 100, 43);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    const Genealogy init = initialGenealogy(aln, 1.0);

    SamplerSpec spec;
    spec.strategy = Strategy::SerialMh;
    auto sampler = makeSampler(spec, lik, 1.0, init, nullptr);
    const std::string path = tempPath("wrongstrategy.ckpt");
    {
        CheckpointWriter w(path);
        sampler->save(w);
        w.commit();
    }
    spec.strategy = Strategy::HeatedMh;
    auto other = makeSampler(spec, lik, 1.0, init, nullptr);
    CheckpointReader r(path);
    EXPECT_THROW(other->load(r), CheckpointError);
}

TEST(CheckpointResumeTest, EstimateThetaResumesAcrossProcessBoundary) {
    // Simulate a kill between EM iterations: the first "process" runs two
    // of four iterations with checkpointing, the second resumes to the full
    // horizon. The result must be bitwise identical to an uninterrupted
    // four-iteration run.
    const Alignment aln = simulateData(7, 1.0, 180, 44);
    MpcgsOptions o;
    o.theta0 = 0.4;
    o.emIterations = 4;
    o.samplesPerIteration = 600;
    o.strategy = Strategy::MultiChain;
    o.chains = 3;
    o.seed = 21;

    const MpcgsResult uninterrupted = estimateTheta(aln, o);

    const std::string path = tempPath("driver.ckpt");
    MpcgsOptions part1 = o;
    part1.emIterations = 2;
    part1.checkpointPath = path;
    estimateTheta(aln, part1);
    ASSERT_TRUE(checkpointExists(path));

    MpcgsOptions part2 = o;
    part2.checkpointPath = path;
    part2.resume = true;
    const MpcgsResult resumed = estimateTheta(aln, part2);

    EXPECT_DOUBLE_EQ(resumed.theta, uninterrupted.theta);
    ASSERT_EQ(resumed.history.size(), uninterrupted.history.size());
    for (std::size_t i = 0; i < resumed.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(resumed.history[i].thetaBefore, uninterrupted.history[i].thetaBefore);
        EXPECT_DOUBLE_EQ(resumed.history[i].thetaAfter, uninterrupted.history[i].thetaAfter);
        EXPECT_EQ(resumed.history[i].samples, uninterrupted.history[i].samples);
    }
    ASSERT_EQ(resumed.finalSummaries.size(), uninterrupted.finalSummaries.size());
    for (std::size_t i = 0; i < resumed.finalSummaries.size(); ++i)
        EXPECT_DOUBLE_EQ(resumed.finalSummaries[i].weightedSum,
                         uninterrupted.finalSummaries[i].weightedSum);
    std::remove(path.c_str());
}

TEST(CheckpointResumeTest, ResumeAfterConvergenceStopContinuesIdentically) {
    // A snapshot taken after the stopping rule fired must resume as
    // already-complete (no extra sampling), so a run killed at that point
    // still converges to the uninterrupted run's exact estimate.
    const Alignment aln = simulateData(7, 1.0, 150, 46);
    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 2;
    o.samplesPerIteration = 3000;
    o.strategy = Strategy::MultiChain;
    o.chains = 4;
    o.seed = 13;
    o.stopRhat = 2.5;  // generous: fires well before the cap
    o.stopEss = 10.0;

    const MpcgsResult uninterrupted = estimateTheta(aln, o);
    ASSERT_TRUE(uninterrupted.history[0].stoppedEarly);

    const std::string path = tempPath("stopped.ckpt");
    MpcgsOptions part1 = o;
    part1.emIterations = 1;  // "killed" after the stop fired in EM 1
    part1.checkpointPath = path;
    const MpcgsResult part1Res = estimateTheta(aln, part1);
    ASSERT_TRUE(part1Res.history[0].stoppedEarly);

    MpcgsOptions part2 = o;
    part2.checkpointPath = path;
    part2.resume = true;
    const MpcgsResult resumed = estimateTheta(aln, part2);

    EXPECT_DOUBLE_EQ(resumed.theta, uninterrupted.theta);
    ASSERT_EQ(resumed.history.size(), 2u);
    EXPECT_TRUE(resumed.history[0].stoppedEarly);
    EXPECT_EQ(resumed.history[0].samples, uninterrupted.history[0].samples);
    EXPECT_DOUBLE_EQ(resumed.history[0].rhat, uninterrupted.history[0].rhat);
    std::remove(path.c_str());
}

TEST(CheckpointResumeTest, IncompatibleConfigurationIsRejected) {
    const Alignment aln = simulateData(6, 1.0, 100, 45);
    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 2;
    o.samplesPerIteration = 200;
    o.strategy = Strategy::SerialMh;
    o.seed = 8;
    const std::string path = tempPath("fingerprint.ckpt");
    o.checkpointPath = path;
    estimateTheta(aln, o);

    MpcgsOptions changed = o;
    changed.resume = true;
    changed.seed = 9;  // different run configuration
    EXPECT_THROW(estimateTheta(aln, changed), ConfigError);

    MpcgsOptions shrunk = o;
    shrunk.resume = true;
    shrunk.emIterations = 1;  // checkpoint already past the horizon
    EXPECT_THROW(estimateTheta(aln, shrunk), ConfigError);

    MpcgsOptions noPath = o;
    noPath.resume = true;
    noPath.checkpointPath.clear();
    EXPECT_THROW(estimateTheta(aln, noPath), ConfigError);
    std::remove(path.c_str());
}

std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/// Runs a resume that must be refused: a readable snapshot of another
/// configuration or run kind raises ConfigError, never ResumeError (on
/// which the CLI starts fresh and overwrites the file), and its bytes are
/// left as they were.
template <class Resume>
void expectRefusedUntouched(const std::string& path, Resume resume) {
    const std::vector<char> before = slurp(path);
    ASSERT_FALSE(before.empty());
    try {
        resume();
        ADD_FAILURE() << "the resume was accepted";
    } catch (const ResumeError& e) {
        ADD_FAILURE() << "refusal surfaced as a ResumeError: " << e.what();
    } catch (const ConfigError&) {
        // refused, as it must be
    }
    EXPECT_EQ(slurp(path), before);
}

TEST(CheckpointResumeTest, StructuredAndSmcRunsRefuseAChangedOption) {
    const Alignment aln = simulateData(6, 1.0, 100, 47);
    {
        SCOPED_TRACE("estimateStructured");
        const std::vector<int> demes{0, 0, 0, 1, 1, 1};
        StructuredOptions o;
        o.init = MigrationModel(2, 1.0, 1.0);
        o.emIterations = 2;
        o.samplesPerIteration = 60;
        o.chains = 2;
        o.seed = 9;
        o.checkpointPath = tempPath("refuse_structured.ckpt");
        estimateStructured(aln, demes, o);
        StructuredOptions changed = o;
        changed.resume = true;
        changed.pathRefreshProb = 0.5;
        expectRefusedUntouched(o.checkpointPath,
                               [&] { estimateStructured(aln, demes, changed); });
        removeSnapshot(o.checkpointPath);
    }
    {
        SCOPED_TRACE("estimateThetaSmc");
        SmcEstimateOptions o;
        o.smc.particles = 16;
        o.seed = 10;
        o.checkpointPath = tempPath("refuse_smc.ckpt");
        o.checkpointIntervalEvals = 1;
        estimateThetaSmc(Dataset::single(aln), o);
        SmcEstimateOptions changed = o;
        changed.resume = true;
        changed.smc.essThreshold = 0.25;
        expectRefusedUntouched(o.checkpointPath,
                               [&] { estimateThetaSmc(Dataset::single(aln), changed); });
        removeSnapshot(o.checkpointPath);
    }
}

TEST(CheckpointResumeTest, SnapshotOfAnotherRunKindIsRefused) {
    const Dataset ds = Dataset::single(simulateData(6, 1.0, 100, 48));
    SmcEstimateOptions smc;
    smc.smc.particles = 16;
    smc.seed = 11;
    {
        SCOPED_TRACE("PMMH snapshot under estimateThetaSmc");
        PmmhEstimateOptions pmmh;
        pmmh.samples = 8;
        pmmh.pmmh.smc.particles = 16;
        pmmh.checkpointPath = tempPath("foreign_pmmh.ckpt");
        pmmh.checkpointIntervalTicks = 1;
        runPmmh(ds, pmmh);
        SmcEstimateOptions resume = smc;
        resume.checkpointPath = pmmh.checkpointPath;
        resume.resume = true;
        expectRefusedUntouched(resume.checkpointPath, [&] { estimateThetaSmc(ds, resume); });
        removeSnapshot(resume.checkpointPath);
    }
    {
        SCOPED_TRACE("SMC memo under estimateTheta");
        SmcEstimateOptions memo = smc;
        memo.checkpointPath = tempPath("foreign_smc.ckpt");
        memo.checkpointIntervalEvals = 1;
        estimateThetaSmc(ds, memo);
        MpcgsOptions resume;
        resume.samplesPerIteration = 60;
        resume.checkpointPath = memo.checkpointPath;
        resume.resume = true;
        expectRefusedUntouched(resume.checkpointPath, [&] { estimateTheta(ds, resume); });
        removeSnapshot(resume.checkpointPath);
    }
}

TEST(CheckpointResumeTest, OnlineStateIsRefusedAndLeftUntouched) {
    // A serve state is a healthy snapshot of another kind: a resume pointed
    // at it must refuse, not read it as corrupt and start over it.
    const Alignment aln = simulateData(6, 1.0, 100, 49);
    SmcOptions filter;
    filter.particles = 16;
    const std::string path = tempPath("online_state.ckpt");
    saveOnlineState(path, initOnlineState(aln, 1.0, filter, "F81", 5));
    {
        SCOPED_TRACE("estimateTheta");
        MpcgsOptions o;
        o.samplesPerIteration = 60;
        o.checkpointPath = path;
        o.resume = true;
        expectRefusedUntouched(path, [&] { estimateTheta(aln, o); });
    }
    {
        SCOPED_TRACE("estimateThetaSmc");
        SmcEstimateOptions o;
        o.smc.particles = 16;
        o.checkpointPath = path;
        o.resume = true;
        expectRefusedUntouched(path, [&] { estimateThetaSmc(Dataset::single(aln), o); });
    }
    EXPECT_NO_THROW(loadOnlineState(path));
    removeSnapshot(path);
}

}  // namespace
}  // namespace mpcgs
