#include "core/support_interval.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/mle.h"
#include "rng/mt19937.h"
#include "util/error.h"

namespace mpcgs {
namespace {

/// Concentrated samples whose curve approximates a smooth single-tree
/// likelihood in theta (peak at meanW / events).
std::vector<IntervalSummary> tightSummaries(int events, double meanW, double spread, int reps,
                                            unsigned seed) {
    Mt19937 rng(seed);
    std::vector<IntervalSummary> out;
    for (int r = 0; r < reps; ++r)
        out.push_back(IntervalSummary{meanW + spread * (rng.uniform01() - 0.5), events});
    return out;
}

TEST(SupportIntervalTest, BracketsTheMle) {
    const auto samples = tightSummaries(9, 9.0, 1.0, 1000, 1);
    const RelativeLikelihood rl(samples, 1.0);
    const MleResult mle = maximizeTheta(rl, 1.0);
    const SupportInterval si = supportInterval(rl, mle.theta);
    EXPECT_TRUE(si.lowerBounded);
    EXPECT_TRUE(si.upperBounded);
    EXPECT_LT(si.lower, si.mle);
    EXPECT_GT(si.upper, si.mle);
    // The curve at the bounds sits the requested drop below the maximum.
    EXPECT_NEAR(rl.logL(si.lower), si.logLAtMle - 1.92, 1e-5);
    EXPECT_NEAR(rl.logL(si.upper), si.logLAtMle - 1.92, 1e-5);
}

TEST(SupportIntervalTest, WiderDropGivesWiderInterval) {
    const auto samples = tightSummaries(9, 9.0, 1.0, 1000, 2);
    const RelativeLikelihood rl(samples, 1.0);
    const MleResult mle = maximizeTheta(rl, 1.0);
    const SupportInterval narrow = supportInterval(rl, mle.theta, 0.5);
    const SupportInterval wide = supportInterval(rl, mle.theta, 3.0);
    EXPECT_LT(narrow.upper - narrow.lower, wide.upper - wide.lower);
}

TEST(SupportIntervalTest, SingleTreeCurveMatchesAnalyticCurvature) {
    // One genealogy: log L(theta) = -E log(theta/theta0) - w(1/theta-1/theta0);
    // the analytic drop-1.92 crossings can be computed by root-finding on
    // the exact function and must match the implementation's bisection.
    const std::vector<IntervalSummary> samples{IntervalSummary{12.0, 6}};
    const RelativeLikelihood rl(samples, 2.0);
    const double mle = 2.0;  // w/events = 12/6
    const SupportInterval si = supportInterval(rl, mle);
    auto exact = [&](double theta) {
        return -6.0 * std::log(theta / 2.0) - 12.0 * (1.0 / theta - 0.5);
    };
    EXPECT_NEAR(exact(si.lower), exact(mle) - 1.92, 1e-6);
    EXPECT_NEAR(exact(si.upper), exact(mle) - 1.92, 1e-6);
    EXPECT_LT(si.lower, 2.0);
    EXPECT_GT(si.upper, 2.0);
}

TEST(SupportIntervalTest, AsymmetryMatchesLikelihoodShape) {
    // Coalescent likelihoods are right-skewed in theta: the upper arm of
    // the support interval is longer than the lower arm.
    const std::vector<IntervalSummary> samples{IntervalSummary{12.0, 6}};
    const RelativeLikelihood rl(samples, 2.0);
    const SupportInterval si = supportInterval(rl, 2.0);
    EXPECT_GT(si.upper - si.mle, si.mle - si.lower);
}

/// Counts the evaluations of a single-tree curve (maximum at theta = 2).
class CountingCurve final : public ThetaLikelihood {
  public:
    double logL(double theta, ThreadPool* = nullptr) const override {
        ++calls;
        return -6.0 * std::log(theta) - 12.0 / theta;
    }
    mutable int calls = 0;
};

TEST(SupportIntervalTest, CoarserToleranceKeepsTheBoundsWithFewerEvaluations) {
    const CountingCurve fine, coarse;
    const SupportInterval ref = supportInterval(fine, 2.0);
    const SupportInterval si = supportInterval(coarse, 2.0, 1.92, 1e4, nullptr, 1e-3);
    EXPECT_NEAR(std::log(si.lower), std::log(ref.lower), 5e-4);
    EXPECT_NEAR(std::log(si.upper), std::log(ref.upper), 5e-4);
    EXPECT_EQ(si.logLAtMle, ref.logLAtMle);
    EXPECT_LT(coarse.calls, fine.calls);
}

TEST(SupportIntervalTest, Validation) {
    const std::vector<IntervalSummary> samples{IntervalSummary{12.0, 6}};
    const RelativeLikelihood rl(samples, 2.0);
    EXPECT_THROW(supportInterval(rl, 0.0), InvariantError);
    EXPECT_THROW(supportInterval(rl, 1.0, 0.0), InvariantError);
}

}  // namespace
}  // namespace mpcgs
