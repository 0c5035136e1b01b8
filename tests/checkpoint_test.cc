// Checkpoint/resume: primitive round-trips, snapshot integrity, and
// bitwise-identical continuation of interrupted runs for every strategy —
// both at the SamplerRun level (mid-sampling kill) and through
// estimateTheta (EM-boundary resume).
#include "mcmc/checkpoint.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/driver.h"
#include "core/samplers.h"
#include "core/structured_sampler.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
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

/// Mid-sampling kill/resume at the SamplerRun level: run to the cap in one
/// go, versus "crash" after killTicks and continue from the snapshot. Both
/// must produce the identical sample stream and final state. Every MH-family
/// chain rebuilds its likelihood arena after load(), which the structured
/// case (path refresh on) covers for labelled genealogies.
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
                return std::make_unique<StructuredChainsSampler>(
                    lik, migration, structuredInit, spec.chains, spec.seed,
                    /*pathRefreshProb=*/0.25, nullptr);
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
        SamplerRun run(*sampler, cfg);
        run.execute(sink, monitor);
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
        cfg.checkpoint = [&](std::size_t burnDone, std::size_t sampleDone, bool) {
            CheckpointWriter w(path);
            w.u64(burnDone);
            w.u64(sampleDone);
            sampler->save(w);
            sink.save(w);
            monitor.save(w);
            w.commit();
        };
        SamplerRun run(*sampler, cfg);
        run.execute(sink, monitor);
    }

    // Resume from the snapshot and run out the remaining ticks.
    RunArtifacts resumed;
    {
        auto sampler = makeFresh();
        SummarySink sink;
        ConvergenceMonitor monitor;
        CheckpointReader r(path);
        const std::size_t burnDone = r.u64();
        const std::size_t sampleDone = r.u64();
        EXPECT_EQ(burnDone, burnTicks);
        EXPECT_EQ(sampleDone, killTicks);
        sampler->load(r);
        sink.load(r);
        monitor.load(r);
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        SamplerRun run(*sampler, cfg);
        run.restoreProgress(burnDone, sampleDone);
        run.execute(sink, monitor);
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

}  // namespace
}  // namespace mpcgs
