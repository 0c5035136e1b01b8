// Tests for among-site rate variation (discrete gamma) and the classical
// moment estimators of theta.
#include <cmath>

#include <gtest/gtest.h>

#include "coalescent/moment_estimators.h"
#include "coalescent/growth.h"
#include "coalescent/simulator.h"
#include "lik/felsenstein.h"
#include "lik/rate_model.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

// --- incomplete gamma --------------------------------------------------------

TEST(GammaFunctions, ShapeOneIsExponentialCdf) {
    for (const double x : {0.1, 0.5, 1.0, 3.0, 10.0})
        EXPECT_NEAR(regularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
}

TEST(GammaFunctions, ShapeHalfIsErf) {
    for (const double x : {0.1, 0.5, 1.0, 4.0})
        EXPECT_NEAR(regularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-10);
}

TEST(GammaFunctions, BoundaryBehaviour) {
    EXPECT_DOUBLE_EQ(regularizedGammaP(2.0, 0.0), 0.0);
    EXPECT_NEAR(regularizedGammaP(2.0, 100.0), 1.0, 1e-12);
    EXPECT_THROW(regularizedGammaP(0.0, 1.0), InvariantError);
}

TEST(GammaFunctions, InverseRoundTrips) {
    for (const double a : {0.3, 1.0, 2.5}) {
        for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9}) {
            const double x = inverseGammaP(a, p);
            EXPECT_NEAR(regularizedGammaP(a, x), p, 1e-9) << "a=" << a << " p=" << p;
        }
    }
    EXPECT_DOUBLE_EQ(inverseGammaP(1.0, 0.0), 0.0);
    EXPECT_THROW(inverseGammaP(1.0, 1.0), InvariantError);
}

// --- discrete gamma categories ------------------------------------------------

class DiscreteGammaSweep : public ::testing::TestWithParam<double> {};

TEST_P(DiscreteGammaSweep, CategoriesAreValidAndOrdered) {
    const double alpha = GetParam();
    for (const int c : {2, 4, 8}) {
        const RateCategories rc = RateCategories::discreteGamma(alpha, c);
        EXPECT_EQ(rc.count(), static_cast<std::size_t>(c));
        EXPECT_NO_THROW(rc.validate());
        for (std::size_t i = 1; i < rc.rates.size(); ++i)
            EXPECT_GT(rc.rates[i], rc.rates[i - 1]);  // quantile means increase
        // Mean rate exactly 1 (weights uniform).
        double mean = 0.0;
        for (std::size_t i = 0; i < rc.rates.size(); ++i) mean += rc.weights[i] * rc.rates[i];
        EXPECT_NEAR(mean, 1.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DiscreteGammaSweep, ::testing::Values(0.2, 0.5, 1.0, 2.0, 10.0));

TEST(DiscreteGamma, LargeAlphaDegeneratesToUniformRate) {
    const RateCategories rc = RateCategories::discreteGamma(1000.0, 4);
    for (const double r : rc.rates) EXPECT_NEAR(r, 1.0, 0.05);
}

TEST(DiscreteGamma, SmallAlphaIsStronglySkewed) {
    const RateCategories rc = RateCategories::discreteGamma(0.2, 4);
    EXPECT_LT(rc.rates.front(), 0.05);
    EXPECT_GT(rc.rates.back(), 2.0);
}

TEST(DiscreteGamma, Validation) {
    EXPECT_THROW(RateCategories::discreteGamma(0.0, 4), ConfigError);
    EXPECT_THROW(RateCategories::discreteGamma(1.0, 0), ConfigError);
    EXPECT_EQ(RateCategories::discreteGamma(1.0, 1).count(), 1u);
}

// --- likelihood with rate heterogeneity ---------------------------------------

TEST(GammaLikelihood, SingleCategoryEqualsDefault) {
    Mt19937 rng(21);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto model = makeJc69();
    const Alignment data = simulateSequences(g, *model, {200, 1.0}, rng);
    const DataLikelihood plain(data, *model);
    const DataLikelihood oneCat(data, *model, RateCategories::uniformRate());
    EXPECT_DOUBLE_EQ(plain.logLikelihood(g), oneCat.logLikelihood(g));
}

TEST(GammaLikelihood, HugeAlphaMatchesHomogeneous) {
    Mt19937 rng(22);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto model = makeJc69();
    const Alignment data = simulateSequences(g, *model, {200, 1.0}, rng);
    const DataLikelihood plain(data, *model);
    const DataLikelihood gamma(data, *model, RateCategories::discreteGamma(5000.0, 4));
    EXPECT_NEAR(plain.logLikelihood(g), gamma.logLikelihood(g), 0.5);
}

TEST(GammaLikelihood, FitsHeterogeneousDataBetter) {
    // Heterogeneous data: half the sites evolved 5x faster. On the true
    // tree, the gamma model must beat the single-rate model.
    Mt19937 rng(23);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    const auto model = makeJc69();
    const Alignment slow = simulateSequences(g, *model, {300, 0.3}, rng);
    const Alignment fast = simulateSequences(g, *model, {300, 2.5}, rng);
    std::vector<Sequence> merged;
    for (std::size_t i = 0; i < slow.sequenceCount(); ++i)
        merged.emplace_back(slow.sequence(i).name(),
                            [&] {
                                auto codes = slow.sequence(i).codes();
                                const auto& fc = fast.sequence(i).codes();
                                codes.insert(codes.end(), fc.begin(), fc.end());
                                return codes;
                            }());
    const Alignment data(std::move(merged));

    const DataLikelihood single(data, *model);
    const DataLikelihood gamma(data, *model, RateCategories::discreteGamma(0.5, 4));
    EXPECT_GT(gamma.logLikelihood(g), single.logLikelihood(g));
}

TEST(GammaLikelihood, ParallelMatchesSerial) {
    Mt19937 rng(24);
    const Genealogy g = simulateCoalescent(10, 1.0, rng);
    const auto model = makeJc69();
    const Alignment data = simulateSequences(g, *model, {300, 1.0}, rng);
    const DataLikelihood gamma(data, *model, RateCategories::discreteGamma(0.7, 4));
    ThreadPool pool(6);
    EXPECT_NEAR(gamma.logLikelihood(g), gamma.logLikelihood(g, &pool), 1e-9);
}

TEST(GammaLikelihood, CacheSupportsRateHeterogeneity) {
    // The pattern-major engine fuses rate categories into the arena pass,
    // so heterogeneous models get the same incremental path as homogeneous
    // ones (the seed's cache rejected them).
    Mt19937 rng(25);
    const Genealogy g = simulateCoalescent(4, 1.0, rng);
    const auto model = makeJc69();
    const Alignment data = simulateSequences(g, *model, {50, 1.0}, rng);
    const DataLikelihood gamma(data, *model, RateCategories::discreteGamma(0.7, 4));
    PartialsBuffer arena;
    EXPECT_NEAR(gamma.engine().evaluate(g, arena), gamma.logLikelihood(g), 1e-10);
}

// --- moment estimators ---------------------------------------------------------

TEST(MomentEstimators, TajimaThetaIsUnbiasedAtScale) {
    // Average of theta_pi over replicates approaches the generating theta.
    Mt19937 rng(26);
    const auto model = makeJc69();
    const double theta = 0.05;  // low divergence: multiple hits negligible
    RunningStats est;
    for (int rep = 0; rep < 150; ++rep) {
        const Genealogy g = simulateCoalescent(10, theta, rng);
        const Alignment data = simulateSequences(g, *model, {800, 1.0}, rng);
        est.add(tajimaTheta(data));
    }
    EXPECT_NEAR(est.mean(), theta, 0.1 * theta);
}

TEST(MomentEstimators, WattersonThetaIsUnbiasedAtScale) {
    Mt19937 rng(27);
    const auto model = makeJc69();
    const double theta = 0.05;
    RunningStats est;
    for (int rep = 0; rep < 150; ++rep) {
        const Genealogy g = simulateCoalescent(10, theta, rng);
        const Alignment data = simulateSequences(g, *model, {800, 1.0}, rng);
        est.add(wattersonTheta(data));
    }
    EXPECT_NEAR(est.mean(), theta, 0.1 * theta);
}

TEST(MomentEstimators, HandComputedSmallCase) {
    // 3 sequences, 10 sites, 2 segregating sites, pairwise diffs 1,2,1.
    const Alignment aln({Sequence::fromString("a", "AAAAAAAAAA"),
                         Sequence::fromString("b", "CAAAAAAAAA"),
                         Sequence::fromString("c", "CTAAAAAAAA")});
    EXPECT_EQ(aln.segregatingSites(), 2u);
    // a1 = 1 + 1/2 = 1.5; theta_W = 2 / (10 * 1.5).
    EXPECT_NEAR(wattersonTheta(aln), 2.0 / 15.0, 1e-12);
    // mean pairwise = (1 + 2 + 1)/3; theta_pi = (4/3)/10.
    EXPECT_NEAR(tajimaTheta(aln), 4.0 / 30.0, 1e-12);
}

TEST(MomentEstimators, TajimaDNearZeroUnderNeutrality) {
    Mt19937 rng(28);
    const auto model = makeJc69();
    RunningStats d;
    for (int rep = 0; rep < 200; ++rep) {
        const Genealogy g = simulateCoalescent(10, 0.05, rng);
        const Alignment data = simulateSequences(g, *model, {500, 1.0}, rng);
        d.add(tajimaD(data));
    }
    EXPECT_NEAR(d.mean(), 0.0, 0.3);  // neutral equilibrium: D centered near 0
}

TEST(MomentEstimators, TajimaDNegativeUnderGrowth) {
    // Population growth produces star-like trees: an excess of singletons,
    // hence negative D.
    Mt19937 rng(29);
    const auto model = makeJc69();
    RunningStats d;
    for (int rep = 0; rep < 200; ++rep) {
        const Genealogy g = simulateGrowthCoalescent(10, {0.05, 20.0}, rng);
        const Alignment data = simulateSequences(g, *model, {500, 1.0}, rng);
        d.add(tajimaD(data));
    }
    EXPECT_LT(d.mean(), -0.05);  // clearly shifted negative vs neutrality
}

TEST(MomentEstimators, Validation) {
    const Alignment one({Sequence::fromString("a", "ACGT"), Sequence::fromString("b", "ACGT")});
    EXPECT_DOUBLE_EQ(wattersonTheta(one), 0.0);
    EXPECT_THROW(tajimaD(one), InvariantError);  // needs >= 3 sequences
}

}  // namespace
}  // namespace mpcgs
