#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/mle.h"
#include "core/posterior.h"
#include "rng/mt19937.h"
#include "util/error.h"

namespace mpcgs {
namespace {

std::vector<IntervalSummary> simulatedSummaries(int n, double theta, int reps, unsigned seed) {
    Mt19937 rng(seed);
    std::vector<IntervalSummary> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        out.push_back(IntervalSummary::fromGenealogy(simulateCoalescent(n, theta, rng)));
    return out;
}

TEST(RelativeLikelihood, LogLAtDrivingValueIsZero) {
    // Eq. 26: every term is P(G|theta0)/P(G|theta0) = 1, so L(theta0) = 1.
    const auto samples = simulatedSummaries(6, 1.0, 500, 1);
    const RelativeLikelihood rl(samples, 1.0);
    EXPECT_NEAR(rl.logL(1.0), 0.0, 1e-12);
}

TEST(RelativeLikelihood, MatchesDirectEvaluation) {
    Mt19937 rng(2);
    const Genealogy g = simulateCoalescent(5, 1.0, rng);
    const auto ivs = g.intervals();
    const std::vector<IntervalSummary> samples{IntervalSummary::fromIntervals(ivs)};
    const double theta0 = 0.7;
    const RelativeLikelihood rl(samples, theta0);
    for (const double theta : {0.3, 0.7, 1.5, 4.0}) {
        const double direct = logCoalescentPrior(ivs, theta) - logCoalescentPrior(ivs, theta0);
        EXPECT_NEAR(rl.logL(theta), direct, 1e-10);
    }
}

TEST(RelativeLikelihood, ParallelMatchesSerial) {
    const auto samples = simulatedSummaries(8, 2.0, 3000, 3);
    const RelativeLikelihood rl(samples, 1.0);
    ThreadPool pool(6);
    for (const double theta : {0.5, 1.0, 2.0, 3.0})
        EXPECT_NEAR(rl.logL(theta), rl.logL(theta, &pool), 1e-10);
}

/// Posterior-like sample sets: interval sums concentrated around a target
/// value, as produced by a data-driven chain (prior samples would give a
/// flat-in-expectation Eq. 26 curve with heavy-tailed noise).
std::vector<IntervalSummary> tightSummaries(int events, double meanW, double spread, int reps,
                                            unsigned seed) {
    Mt19937 rng(seed);
    std::vector<IntervalSummary> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        out.push_back(IntervalSummary{meanW + spread * (rng.uniform01() - 0.5), events});
    return out;
}

TEST(RelativeLikelihood, PeaksNearPosteriorConcentration) {
    // With interval sums concentrated around w, the Eq. 26 curve peaks near
    // w / (n-1), the common per-sample maximizer.
    const int events = 9;
    const double meanW = 18.0;  // implies theta_hat = 2.0
    const auto samples = tightSummaries(events, meanW, 2.0, 2000, 4);
    const RelativeLikelihood rl(samples, 1.0);
    const auto curve = rl.curve(0.2, 20.0, 121);
    double best = -1e300, bestTheta = 0.0;
    for (const auto& [theta, ll] : curve) {
        if (ll > best) {
            best = ll;
            bestTheta = theta;
        }
    }
    EXPECT_NEAR(bestTheta, meanW / events, 0.15);
}

TEST(RelativeLikelihood, SingleSampleAnalyticMaximum) {
    // With one sample the maximizer is the single-tree MLE.
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto ivs = g.intervals();
    const std::vector<IntervalSummary> samples{IntervalSummary::fromIntervals(ivs)};
    const RelativeLikelihood rl(samples, 0.5);
    const MleResult res = maximizeTheta(rl, 0.5);
    EXPECT_NEAR(res.theta, singleTreeThetaMle(ivs), 1e-3);
}

TEST(RelativeLikelihood, CurveGridValidation) {
    const auto samples = simulatedSummaries(4, 1.0, 10, 6);
    const RelativeLikelihood rl(samples, 1.0);
    EXPECT_THROW(rl.curve(0.0, 1.0, 10), InvariantError);
    EXPECT_THROW(rl.curve(1.0, 0.5, 10), InvariantError);
    EXPECT_THROW(rl.curve(0.5, 1.0, 1), InvariantError);
    EXPECT_THROW(rl.logL(-1.0), InvariantError);
}

TEST(RelativeLikelihood, ConstructorValidation) {
    EXPECT_THROW(RelativeLikelihood({}, 1.0), InvariantError);
    const auto samples = simulatedSummaries(4, 1.0, 10, 7);
    EXPECT_THROW(RelativeLikelihood(samples, 0.0), ConfigError);
}

TEST(Mle, GradientAscentFindsKnownMaximum) {
    const auto samples = tightSummaries(7, 10.5, 1.5, 2000, 8);  // peak near 1.5
    const RelativeLikelihood rl(samples, 1.5);
    const MleResult grad = maximizeThetaGradient(rl, 0.3);
    EXPECT_TRUE(grad.converged);
    // Compare against a fine grid search.
    const auto curve = rl.curve(0.1, 15.0, 600);
    double gridBest = -1e300, gridTheta = 0.0;
    for (const auto& [theta, ll] : curve)
        if (ll > gridBest) {
            gridBest = ll;
            gridTheta = theta;
        }
    EXPECT_NEAR(grad.theta, gridTheta, 0.05 * gridTheta);
    EXPECT_GE(grad.logL, gridBest - 1e-6);
}

TEST(Mle, GoldenSectionAgreesWithGradient) {
    const auto samples = tightSummaries(7, 5.6, 1.0, 2000, 9);  // peak near 0.8
    const RelativeLikelihood rl(samples, 0.8);
    const MleResult grad = maximizeThetaGradient(rl, 2.0);
    const MleResult gold = maximizeThetaGolden(rl, 0.01, 50.0);
    EXPECT_NEAR(grad.theta, gold.theta, 0.02 * gold.theta);
}

TEST(Mle, StartingFarBelowStillConverges) {
    // The Fig 5 scenario: driving value 0.01 while the samples support
    // theta near 1.0.
    const auto samples = tightSummaries(9, 9.0, 1.0, 2000, 10);
    const RelativeLikelihood rl(samples, 0.01);
    const MleResult res = maximizeTheta(rl, 0.01);
    EXPECT_NEAR(res.theta, 1.0, 0.1);
}

/// The single-tree coalescent curve log L = -E log(theta) - W / theta,
/// maximal at W / E, recording every (theta, log L) it is asked for.
class RecordingCurve final : public ThetaLikelihood {
  public:
    static constexpr double kEvents = 6.0;
    static constexpr double kLength = 12.0;  ///< maximum at theta = 2

    double logL(double theta, ThreadPool* = nullptr) const override {
        const double v = -kEvents * std::log(theta) - kLength / theta;
        calls.emplace_back(theta, v);
        return v;
    }
    mutable std::vector<std::pair<double, double>> calls;
};

TEST(Mle, StepCapAndFloorBoundEveryLineSearchTrial) {
    GradientAscentOptions capped;
    capped.maxStepFactor = 2.0;
    capped.minStep = capped.delta;
    const RecordingCurve curve;
    const MleResult res = maximizeThetaGradient(curve, 0.05, capped);
    ASSERT_TRUE(res.converged);
    EXPECT_NEAR(res.theta, 2.0, 4 * capped.delta * 2.0);

    // Replay the calls: each iteration evaluates its two finite-difference
    // probes, then line-search trials until one is uphill of the iterate.
    const auto& calls = curve.calls;
    std::pair<double, double> iterate = calls.front();
    std::size_t i = 1, trials = 0;
    while (i < calls.size()) {
        ASSERT_LE(i + 2, calls.size());
        for (const std::size_t p : {i, i + 1})
            EXPECT_NEAR(std::fabs(calls[p].first - iterate.first),
                        capped.delta * iterate.first, 1e-12 * iterate.first);
        for (i += 2; i < calls.size();) {
            const auto [theta, logL] = calls[i++];
            ++trials;
            EXPECT_GE(theta, iterate.first / 2.0);
            EXPECT_LE(theta, iterate.first * 2.0);
            EXPECT_GE(std::fabs(theta - iterate.first), capped.delta * iterate.first);
            if (logL >= iterate.second) {
                iterate = {theta, logL};
                break;
            }
        }
    }
    EXPECT_GT(trials, 0u);
    EXPECT_EQ(iterate.first, res.theta);

    const RecordingCurve plain;
    const MleResult ref = maximizeThetaGradient(plain, 0.05);
    ASSERT_TRUE(ref.converged);
    EXPECT_LT(calls.size(), plain.calls.size());
}

TEST(Mle, DefaultOptionsNeitherCapNorFloorTheSteps) {
    // From 0.05 the first gradient step lands near 11.75, far outside a
    // factor-2 band; the defaults evaluate it, and it is uphill.
    const RecordingCurve curve;
    const MleResult res = maximizeTheta(curve, 0.05);
    EXPECT_NEAR(res.theta, 2.0, 1e-3);
    ASSERT_GE(curve.calls.size(), 4u);
    EXPECT_GT(curve.calls[3].first, 10.0);
}

TEST(Mle, RejectsNonPositiveStart) {
    const auto samples = simulatedSummaries(4, 1.0, 10, 11);
    const RelativeLikelihood rl(samples, 1.0);
    EXPECT_THROW(maximizeThetaGradient(rl, 0.0), InvariantError);
    EXPECT_THROW(maximizeThetaGolden(rl, -1.0, 1.0), InvariantError);
}

}  // namespace
}  // namespace mpcgs
