// Integration tests: the full Fig 11 pipeline on simulated data.
#include "core/driver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"

namespace mpcgs {
namespace {

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);  // the paper's generator
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

MpcgsOptions quickOptions(Strategy strategy) {
    MpcgsOptions o;
    o.theta0 = 0.3;
    o.emIterations = 3;
    o.samplesPerIteration = 1200;
    o.strategy = strategy;
    o.gmhProposals = 16;
    o.gmhSamplesPerSet = 8;
    o.chains = 4;
    o.seed = 11;
    return o;
}

TEST(DriverTest, InitialGenealogyIsValidAndScaled) {
    const Alignment aln = simulateData(6, 1.0, 200, 21);
    const Genealogy g = initialGenealogy(aln, 2.0);
    EXPECT_NO_THROW(g.validate());
    EXPECT_EQ(g.tipCount(), 6);
    EXPECT_NEAR(g.tmrca(), 2.0 * (1.0 - 1.0 / 6.0), 1e-9);
    EXPECT_EQ(g.tipNames()[0], aln.sequence(0).name());
}

TEST(DriverTest, GmhEstimatesSaneTheta) {
    const Alignment aln = simulateData(8, 1.0, 400, 22);
    const MpcgsResult res = estimateTheta(aln, quickOptions(Strategy::Gmh));
    EXPECT_GT(res.theta, 0.15);
    EXPECT_LT(res.theta, 6.0);
    EXPECT_EQ(res.history.size(), 3u);
    // The EM iterations move theta away from the (wrong) driving value.
    EXPECT_GT(res.history.back().thetaAfter, res.history.front().thetaBefore);
}

TEST(DriverTest, SerialMhEstimatesSaneTheta) {
    const Alignment aln = simulateData(8, 1.0, 400, 22);
    const MpcgsResult res = estimateTheta(aln, quickOptions(Strategy::SerialMh));
    EXPECT_GT(res.theta, 0.15);
    EXPECT_LT(res.theta, 6.0);
}

TEST(DriverTest, MultiChainEstimatesSaneTheta) {
    const Alignment aln = simulateData(8, 1.0, 400, 22);
    ThreadPool pool(4);
    const MpcgsResult res = estimateTheta(aln, quickOptions(Strategy::MultiChain), &pool);
    EXPECT_GT(res.theta, 0.15);
    EXPECT_LT(res.theta, 6.0);
}

TEST(DriverTest, StrategiesAgreeOnTheSameData) {
    const Alignment aln = simulateData(10, 1.0, 500, 23);
    MpcgsOptions o = quickOptions(Strategy::Gmh);
    o.samplesPerIteration = 2500;
    o.emIterations = 4;
    const double gmh = estimateTheta(aln, o).theta;
    o.strategy = Strategy::SerialMh;
    const double mh = estimateTheta(aln, o).theta;
    // Same posterior, same EM — estimates agree within MCMC noise.
    EXPECT_LT(std::fabs(std::log(gmh / mh)), std::log(2.2));
}

TEST(DriverTest, GmhIsDeterministicAcrossThreadCounts) {
    const Alignment aln = simulateData(7, 1.0, 250, 24);
    const MpcgsOptions o = quickOptions(Strategy::Gmh);
    const MpcgsResult serial = estimateTheta(aln, o, nullptr);
    ThreadPool pool(6);
    const MpcgsResult parallel = estimateTheta(aln, o, &pool);
    // Philox proposal streams + host-side categorical draws make the whole
    // estimate bit-reproducible regardless of threading.
    EXPECT_DOUBLE_EQ(serial.theta, parallel.theta);
}

TEST(DriverTest, HistoryRecordsAreCoherent) {
    const Alignment aln = simulateData(6, 1.0, 200, 25);
    const MpcgsResult res = estimateTheta(aln, quickOptions(Strategy::Gmh));
    double prev = 0.3;
    for (const auto& h : res.history) {
        EXPECT_DOUBLE_EQ(h.thetaBefore, prev);
        EXPECT_GT(h.thetaAfter, 0.0);
        EXPECT_GT(h.samples, 0u);
        EXPECT_GE(h.seconds, 0.0);
        prev = h.thetaAfter;
    }
    EXPECT_DOUBLE_EQ(res.theta, prev);
    EXPECT_GE(res.totalSeconds, res.samplingSeconds);
}

TEST(DriverTest, RecoversInjectedThetaWithinTolerance) {
    // Coarse accuracy (the Table 1 criterion is correlation, not equality):
    // with theta* = 1 and reasonable data, the estimate lands in [0.3, 4].
    const Alignment aln = simulateData(10, 1.0, 600, 26);
    MpcgsOptions o = quickOptions(Strategy::Gmh);
    o.samplesPerIteration = 3000;
    o.emIterations = 4;
    const MpcgsResult res = estimateTheta(aln, o);
    EXPECT_GT(res.theta, 0.3);
    EXPECT_LT(res.theta, 4.0);
}

TEST(DriverTest, OptionValidation) {
    const Alignment aln = simulateData(6, 1.0, 100, 27);
    MpcgsOptions o = quickOptions(Strategy::Gmh);
    o.theta0 = 0.0;
    EXPECT_THROW(estimateTheta(aln, o), ConfigError);
    o.theta0 = std::nan("");  // NaN passes `x <= 0`; only `!(x > 0)` rejects it
    EXPECT_THROW(validateOptions(o), ConfigError);
    o = quickOptions(Strategy::Gmh);
    o.emIterations = 0;
    EXPECT_THROW(estimateTheta(aln, o), ConfigError);
    o = quickOptions(Strategy::Gmh);
    o.substModel = "BOGUS";
    EXPECT_THROW(estimateTheta(aln, o), ConfigError);
    // GMH needs >= 3 sequences.
    const Alignment two({Sequence::fromString("a", "ACGTACGT"),
                         Sequence::fromString("b", "ACGTACGA")});
    EXPECT_THROW(estimateTheta(two, quickOptions(Strategy::Gmh)), ConfigError);
}

TEST(DriverTest, HeatedStrategyEstimatesSaneTheta) {
    const Alignment aln = simulateData(8, 1.0, 400, 22);
    MpcgsOptions o = quickOptions(Strategy::HeatedMh);
    const MpcgsResult res = estimateTheta(aln, o);
    EXPECT_GT(res.theta, 0.15);
    EXPECT_LT(res.theta, 6.0);
    // Swap statistics feed the move-rate field for this strategy.
    EXPECT_GE(res.history.back().moveRate, 0.0);
}

TEST(DriverTest, FinalSummariesSupportCurveReconstruction) {
    const Alignment aln = simulateData(8, 1.0, 300, 29);
    const MpcgsResult res = estimateTheta(aln, quickOptions(Strategy::Gmh));
    ASSERT_FALSE(res.finalSummaries.empty());
    EXPECT_DOUBLE_EQ(res.finalDrivingTheta, res.history.back().thetaBefore);
    // The rebuilt curve is exactly the one the final M-step maximized: its
    // value at the estimate is the recorded maximum.
    const RelativeLikelihood rl(res.finalSummaries, res.finalDrivingTheta);
    EXPECT_NEAR(rl.logL(res.theta), res.history.back().logLAtMax, 1e-9);
}

TEST(DriverTest, TwoSequencesWorkWithSerialMh) {
    Mt19937 rng(28);
    const Genealogy g = simulateCoalescent(2, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {300, 1.0}, rng);
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    const MpcgsResult res = estimateTheta(aln, o);
    EXPECT_GT(res.theta, 0.0);
    EXPECT_TRUE(std::isfinite(res.theta));
}

}  // namespace
}  // namespace mpcgs
