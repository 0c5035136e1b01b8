#include "util/stats.h"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "running_stats.h"

namespace mpcgs {
namespace {

TEST(Mean, Basic) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Mean, EmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Variance, UnbiasedSample) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Variance, SinglePointIsZero) {
    const std::vector<double> xs{3.0};
    EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stdev, SqrtOfVariance) {
    const std::vector<double> xs{1.0, 3.0};
    EXPECT_NEAR(stdev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Pearson, PerfectPositive) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
    const std::vector<double> xs{1, 2, 3};
    const std::vector<double> ys{3, 2, 1};
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Pearson, KnownValue) {
    // Paper Table 1: true theta vs the mpcgs estimates. The paper reports a
    // "very strong" correlation of r = 0.905 for its accuracy comparison;
    // the mpcgs column alone gives r ~ 0.86 and the pooled columns ~ 0.9.
    const std::vector<double> truth{0.5, 1.0, 2.0, 3.0, 4.0};
    const std::vector<double> mpcgs{0.966, 1.131, 2.423, 5.32, 3.913};
    EXPECT_NEAR(pearson(truth, mpcgs), 0.8618, 0.001);

    const std::vector<double> pooledTruth{0.5, 1.0, 2.0, 3.0, 4.0, 0.5, 1.0, 2.0, 3.0, 4.0};
    const std::vector<double> pooledEst{0.858, 0.959, 2.521, 5.432, 4.384,
                                        0.966, 1.131, 2.423, 5.32, 3.913};
    const double pooled = pearson(pooledTruth, pooledEst);
    EXPECT_GT(pooled, 0.85);  // "very strong" band per Evans (1996)
    EXPECT_LT(pooled, 1.0);
}

TEST(Pearson, ThrowsOnMismatch) {
    const std::vector<double> xs{1, 2, 3};
    const std::vector<double> ys{1, 2};
    EXPECT_THROW(pearson(xs, ys), std::invalid_argument);
}

TEST(Pearson, ThrowsOnConstantSeries) {
    const std::vector<double> xs{1, 1, 1};
    const std::vector<double> ys{1, 2, 3};
    EXPECT_THROW(pearson(xs, ys), std::invalid_argument);
}

TEST(Median, OddAndEven) {
    const std::vector<double> odd{5, 1, 3};
    EXPECT_DOUBLE_EQ(median(odd), 3.0);
    const std::vector<double> even{4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Quantile, Endpoints) {
    const std::vector<double> xs{10, 20, 30};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 30.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 20.0);
}

TEST(Quantile, Throws) {
    EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
    const std::vector<double> xs{1.0};
    EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(RunningStats, MatchesBatch) {
    std::mt19937 gen(7);
    std::normal_distribution<double> d(3.0, 2.0);
    std::vector<double> xs(500);
    RunningStats rs;
    for (auto& x : xs) {
        x = d(gen);
        rs.add(x);
    }
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-10);
    EXPECT_NEAR(rs.variance(), variance(xs), 1e-8);
    EXPECT_EQ(rs.count(), xs.size());
}

TEST(RunningStats, MergeEqualsCombined) {
    std::mt19937 gen(8);
    std::uniform_real_distribution<double> d(0.0, 1.0);
    RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = d(gen);
        a.add(x);
        all.add(x);
    }
    for (int i = 0; i < 57; ++i) {
        const double x = d(gen);
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(1.0);
    a.add(2.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Autocorrelation, LagZeroIsOne) {
    const std::vector<double> xs{1, 2, 3, 4, 5, 4, 3, 2};
    EXPECT_NEAR(autocorrelation(xs, 0), 1.0, 1e-12);
}

TEST(Autocorrelation, IndependentSeriesNearZero) {
    std::mt19937 gen(9);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> xs(5000);
    for (auto& x : xs) x = d(gen);
    EXPECT_NEAR(autocorrelation(xs, 1), 0.0, 0.05);
}

TEST(Autocorrelation, PersistentSeriesNearOne) {
    std::vector<double> xs(1000);
    std::mt19937 gen(10);
    std::normal_distribution<double> d(0.0, 0.01);
    double v = 0.0;
    for (auto& x : xs) {
        v = 0.99 * v + d(gen);
        x = v;
    }
    EXPECT_GT(autocorrelation(xs, 1), 0.9);
}

TEST(EffectiveSampleSize, IidIsNearN) {
    std::mt19937 gen(11);
    std::normal_distribution<double> d(0.0, 1.0);
    std::vector<double> xs(4000);
    for (auto& x : xs) x = d(gen);
    const double ess = effectiveSampleSize(xs);
    EXPECT_GT(ess, 2000.0);
    EXPECT_LE(ess, 4000.0 * 1.2);
}

TEST(EffectiveSampleSize, CorrelatedIsMuchSmaller) {
    std::vector<double> xs(4000);
    std::mt19937 gen(12);
    std::normal_distribution<double> d(0.0, 0.1);
    double v = 0.0;
    for (auto& x : xs) {
        v = 0.95 * v + d(gen);
        x = v;
    }
    EXPECT_LT(effectiveSampleSize(xs), 1000.0);
}

}  // namespace
}  // namespace mpcgs
