// Run supervision: cooperative SIGTERM/SIGINT stops, wall-time deadlines,
// checkpoint-write retry with backoff, exit-code taxonomy, and the
// headline guarantee — an interrupted run (via the deterministic
// supervisor.stop fail point, a stand-in for a signal at an exact tick)
// leaves a checkpoint from which --resume continues bitwise-identically,
// for all four estimator entry points.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/structured_estimator.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "rng/mt19937.h"
#include "seq/dataset.h"
#include "seq/seqgen.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

class SupervisorTest : public ::testing::Test {
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }

    static std::string tempPath(const std::string& name) {
        return ::testing::TempDir() + name;
    }

    static Alignment smallAlignment() {
        Mt19937 rng(3);
        const Genealogy g = simulateCoalescent(6, 1.0, rng);
        SeqGenOptions so;
        so.length = 120;
        const auto model = makeF84(2.0, kUniformFreqs);
        return simulateSequences(g, *model, so, rng);
    }
};

TEST_F(SupervisorTest, StartsWithNoStopPending) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_TRUE(sv.stopReason().empty());
}

TEST_F(SupervisorTest, SigtermSetsTheStopFlagAndLatches) {
    RunSupervisor sv;  // installs handlers
    ASSERT_FALSE(sv.stopRequested());
    std::raise(SIGTERM);
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_EQ(sv.stopReason(), "SIGTERM");
    // Latched: still stopped on every later poll.
    EXPECT_TRUE(sv.stopRequested());
}

TEST_F(SupervisorTest, SigintIsAlsoCooperative) {
    RunSupervisor sv;
    std::raise(SIGINT);
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_EQ(sv.stopReason(), "SIGINT");
}

TEST_F(SupervisorTest, WallTimeDeadlineTripsTheFlag) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.maxWallSeconds = 0.05;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_TRUE(sv.stopRequested());
    EXPECT_NE(sv.stopReason().find("wall-time"), std::string::npos);
}

TEST_F(SupervisorTest, StopFailpointRequestsADeterministicStop) {
    failpoint::configure("supervisor.stop=after(2)");
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    RunSupervisor sv(cfg);
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_FALSE(sv.stopRequested());
    EXPECT_TRUE(sv.stopRequested());  // third poll = evaluation 3 = after(2)
    EXPECT_NE(sv.stopReason().find("injected"), std::string::npos);
}

TEST_F(SupervisorTest, CheckpointRetrySucceedsAfterTransientFailures) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.checkpointRetries = 3;
    cfg.backoffInitialMs = 1.0;  // keep the test fast
    cfg.backoffMaxMs = 4.0;
    RunSupervisor sv(cfg);
    int attempts = 0;
    sv.writeCheckpointWithRetry([&] {
        if (++attempts <= 2) throw CheckpointError("transient: disk momentarily full");
    });
    EXPECT_EQ(attempts, 3);
}

TEST_F(SupervisorTest, CheckpointRetryGivesUpAndRethrows) {
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    cfg.checkpointRetries = 2;
    cfg.backoffInitialMs = 1.0;
    cfg.backoffMaxMs = 2.0;
    RunSupervisor sv(cfg);
    int attempts = 0;
    EXPECT_THROW(sv.writeCheckpointWithRetry([&] {
        ++attempts;
        throw CheckpointError("persistent failure");
    }),
                 CheckpointError);
    EXPECT_EQ(attempts, 3);  // 1 + 2 retries
}

TEST_F(SupervisorTest, WithCheckpointRetryRunsDirectlyWithoutASupervisor) {
    int attempts = 0;
    withCheckpointRetry(nullptr, [&] { ++attempts; });
    EXPECT_EQ(attempts, 1);
    EXPECT_THROW(
        withCheckpointRetry(nullptr, [] { throw CheckpointError("no retry, no rescue"); }),
        CheckpointError);
}

TEST_F(SupervisorTest, ExitCodeTaxonomyIsStable) {
    EXPECT_EQ(exitCodeFor(InterruptedError("stopped", true)), kExitInterrupted);
    EXPECT_EQ(exitCodeFor(NumericError("bad logL")), kExitNumericFault);
    EXPECT_EQ(exitCodeFor(ResumeError("snapshot gone")), kExitResumeFailed);
    EXPECT_EQ(exitCodeFor(CheckpointError("disk full")), kExitIoFault);
    EXPECT_EQ(exitCodeFor(ConfigError("bad flag")), kExitUsage);
    EXPECT_EQ(exitCodeFor(ParseError("bad file")), kExitUsage);
    EXPECT_EQ(exitCodeFor(std::runtime_error("anything else")), kExitFailure);
    EXPECT_EQ(exitCodeFor(InjectedFaultError("mcmc.logpost")), kExitFailure);
}

// --- interrupt + bitwise-identical resume, all four estimators ---------

TEST_F(SupervisorTest, McmcInterruptThenResumeIsBitwiseIdentical) {
    const Alignment aln = smallAlignment();
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 2;
    opts.samplesPerIteration = 200;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 77;
    const MpcgsResult baseline = estimateTheta(aln, opts);

    const std::string path = tempPath("sv_mcmc.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(60)");
    MpcgsOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 5;
    part.supervisor = &sv;
    try {
        estimateTheta(aln, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    // The final snapshot must be a valid, CRC-clean current-version file.
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    MpcgsOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const MpcgsResult resumed = estimateTheta(aln, rest);
    EXPECT_EQ(resumed.theta, baseline.theta);
    ASSERT_EQ(resumed.history.size(), baseline.history.size());
    for (std::size_t i = 0; i < baseline.history.size(); ++i)
        EXPECT_EQ(resumed.history[i].thetaAfter, baseline.history[i].thetaAfter);
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, SmcInterruptThenResumeIsBitwiseIdentical) {
    Dataset ds;
    ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    SmcEstimateOptions opts;
    opts.theta0 = 1.0;
    opts.smc.particles = 64;
    opts.seed = 19;
    const SmcEstimateResult baseline = estimateThetaSmc(ds, opts);

    const std::string path = tempPath("sv_smc.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(6)");
    SmcEstimateOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalEvals = 4;
    part.supervisor = &sv;
    try {
        estimateThetaSmc(ds, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    SmcEstimateOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const SmcEstimateResult resumed = estimateThetaSmc(ds, rest);
    EXPECT_EQ(resumed.theta, baseline.theta);
    EXPECT_EQ(resumed.logZAtMax, baseline.logZAtMax);
    EXPECT_EQ(resumed.support.lower, baseline.support.lower);
    EXPECT_EQ(resumed.support.upper, baseline.support.upper);
    EXPECT_EQ(resumed.passes, baseline.passes);  // replayed points count
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, PmmhInterruptThenResumeIsBitwiseIdentical) {
    Dataset ds;
    ds.add(Locus{"locus0", smallAlignment(), 1.0, {}});
    PmmhEstimateOptions opts;
    opts.theta0 = 1.0;
    opts.samples = 40;
    opts.pmmh.chains = 2;
    opts.pmmh.smc.particles = 32;
    opts.pmmh.seed = 23;
    const PmmhEstimateResult baseline = runPmmh(ds, opts);

    const std::string path = tempPath("sv_pmmh.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(8)");
    PmmhEstimateOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 3;
    part.supervisor = &sv;
    try {
        runPmmh(ds, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    PmmhEstimateOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const PmmhEstimateResult resumed = runPmmh(ds, rest);
    EXPECT_EQ(resumed.posteriorMean, baseline.posteriorMean);
    EXPECT_EQ(resumed.posteriorSd, baseline.posteriorSd);
    ASSERT_EQ(resumed.thetaChainMajor.size(), baseline.thetaChainMajor.size());
    for (std::size_t i = 0; i < baseline.thetaChainMajor.size(); ++i)
        EXPECT_EQ(resumed.thetaChainMajor[i], baseline.thetaChainMajor[i]);
    std::remove(path.c_str());
}

TEST_F(SupervisorTest, StructuredInterruptThenResumeIsBitwiseIdentical) {
    Mt19937 rng(43);
    MigrationModel truth(2, 1.0, 0.5);
    std::vector<int> demes{0, 0, 0, 1, 1, 1};
    const StructuredGenealogy g = simulateStructuredCoalescent(demes, truth, rng);
    SeqGenOptions so;
    so.length = 150;
    const auto model = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(g.tree(), *model, so, rng);

    StructuredOptions opts;
    opts.init = MigrationModel(2, 1.0, 1.0);
    opts.emIterations = 2;
    opts.samplesPerIteration = 150;
    opts.chains = 2;
    opts.seed = 4242;
    const StructuredResult baseline = estimateStructured(aln, demes, opts);

    const std::string path = tempPath("sv_structured.mpck");
    RunSupervisor::Config svCfg;
    svCfg.handleSignals = false;
    RunSupervisor sv(svCfg);
    failpoint::configure("supervisor.stop=after(40)");
    StructuredOptions part = opts;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 5;
    part.supervisor = &sv;
    try {
        estimateStructured(aln, demes, part);
        FAIL() << "injected stop did not interrupt the run";
    } catch (const InterruptedError& e) {
        EXPECT_TRUE(e.checkpointWritten());
    }
    EXPECT_EQ(verifySnapshot(path), kCheckpointVersion);

    failpoint::reset();
    StructuredOptions rest = opts;
    rest.checkpointPath = path;
    rest.resume = true;
    const StructuredResult resumed = estimateStructured(aln, demes, rest);
    EXPECT_EQ(resumed.estimate, baseline.estimate);
    ASSERT_EQ(resumed.history.size(), baseline.history.size());
    for (std::size_t i = 0; i < baseline.history.size(); ++i)
        EXPECT_EQ(resumed.history[i].after, baseline.history[i].after);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcgs
