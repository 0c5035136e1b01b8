#include "coalescent/death_process.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rng/mt19937.h"
#include "util/error.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DeathRate, MatchesKingmanPairCounts) {
    const double theta = 2.0;
    // j actives, m inactives: rate = [j(j-1) + 2jm] / theta.
    EXPECT_DOUBLE_EQ(DeathProcess::rate(2, 0, theta), 2.0 / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(3, 0, theta), 6.0 / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(2, 3, theta), (2.0 + 12.0) / theta);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(3, 2, theta), (6.0 + 12.0) / theta);
    // A lone active lineage is absorbing in the restricted move.
    EXPECT_DOUBLE_EQ(DeathProcess::rate(1, 5, theta), 0.0);
    EXPECT_DOUBLE_EQ(DeathProcess::rate(0, 5, theta), 0.0);
}

TEST(TransitionProb, DiagonalIsSurvival) {
    const double theta = 1.0, t = 0.4;
    const int m = 1;
    EXPECT_NEAR(DeathProcess::transitionProb(3, 3, t, m, theta),
                std::exp(-DeathProcess::rate(3, m, theta) * t), 1e-12);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(1, 1, t, m, theta), 1.0);
}

TEST(TransitionProb, TwoToOneClosedForm) {
    const double theta = 1.3, t = 0.7;
    const int m = 2;
    const double l2 = DeathProcess::rate(2, m, theta);
    EXPECT_NEAR(DeathProcess::transitionProb(2, 1, t, m, theta), 1.0 - std::exp(-l2 * t),
                1e-12);
}

TEST(TransitionProb, RowsSumToOne) {
    for (const int m : {0, 1, 3}) {
        for (const double t : {0.01, 0.3, 2.0}) {
            for (int a = 1; a <= 3; ++a) {
                double sum = 0.0;
                for (int b = 1; b <= a; ++b)
                    sum += DeathProcess::transitionProb(a, b, t, m, 1.0);
                EXPECT_NEAR(sum, 1.0, 1e-10) << "a=" << a << " m=" << m << " t=" << t;
            }
        }
    }
}

TEST(TransitionProb, ZeroAndInfiniteTime) {
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 3, 0.0, 1, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 2, 0.0, 1, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 1, kInf, 1, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(DeathProcess::transitionProb(3, 2, kInf, 1, 1.0), 0.0);
}

TEST(TransitionProb, ChapmanKolmogorov) {
    const double theta = 0.9;
    const int m = 1;
    const double s = 0.3, t = 0.5;
    for (int a = 1; a <= 3; ++a) {
        for (int b = 1; b <= a; ++b) {
            double conv = 0.0;
            for (int k = b; k <= a; ++k)
                conv += DeathProcess::transitionProb(a, k, s, m, theta) *
                        DeathProcess::transitionProb(k, b, t, m, theta);
            EXPECT_NEAR(conv, DeathProcess::transitionProb(a, b, s + t, m, theta), 1e-10);
        }
    }
}

TEST(TransitionProb, MatchesMonteCarloSimulation) {
    // Simulate the raw death process and compare empirical state occupancy.
    const double theta = 1.0, t = 0.5;
    const int m = 2, a = 3;
    Mt19937 rng(5);
    const int reps = 100000;
    std::array<int, 4> counts{};
    for (int r = 0; r < reps; ++r) {
        int j = a;
        double clock = 0.0;
        while (j > 1) {
            clock += rng.exponential(DeathProcess::rate(j, m, theta));
            if (clock > t) break;
            --j;
        }
        counts[static_cast<std::size_t>(j)]++;
    }
    for (int b = 1; b <= a; ++b) {
        const double expect = DeathProcess::transitionProb(a, b, t, m, theta);
        EXPECT_NEAR(counts[static_cast<std::size_t>(b)] / static_cast<double>(reps), expect,
                    0.01)
            << "b=" << b;
    }
}

// --- conditioned region sampling ---------------------------------------------

DeathProcess makeBoundedRegion(double theta = 1.0) {
    // Three children entering at 0, 0.1, 0.25; ancestor at 1.0; inactive
    // counts varying per interval.
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.1, 3, 1},
        {0.1, 0.25, 2, 1},
        {0.25, 1.0, 1, 1},
    };
    return DeathProcess(std::move(ivs), theta);
}

TEST(DeathProcessRegion, CompletionProbabilityInUnitInterval) {
    const DeathProcess dp = makeBoundedRegion();
    const double h = dp.completionProbability();
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
    EXPECT_EQ(dp.totalActive(), 3);
}

TEST(DeathProcessRegion, SamplesAreSortedAndInsideRegion) {
    const DeathProcess dp = makeBoundedRegion();
    Mt19937 rng(6);
    for (int r = 0; r < 500; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        ASSERT_EQ(times.size(), 2u);
        EXPECT_LT(times[0], times[1]);
        EXPECT_GT(times[0], 0.0);
        EXPECT_LT(times[1], 1.0);
        // Density of every sampled configuration is finite.
        EXPECT_GT(dp.logDensity(times), -kInf);
    }
}

TEST(DeathProcessRegion, DensityIntegratesToOne) {
    // 2-D trapezoid quadrature of exp(logDensity) over 0 < s0 < s1 < 1.
    const DeathProcess dp = makeBoundedRegion();
    const int grid = 300;
    const double h = 1.0 / grid;
    double integral = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) integral += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DeathProcessRegion, SamplerMatchesDensityMarginal) {
    // Empirical CDF of the first merge time vs quadrature of the density.
    const DeathProcess dp = makeBoundedRegion();
    Mt19937 rng(7);
    const int reps = 40000;
    int below = 0;
    const double cut = 0.3;
    for (int r = 0; r < reps; ++r)
        if (dp.sampleMergeTimes(rng)[0] < cut) ++below;

    const int grid = 400;
    const double h = 1.0 / grid;
    double massBelow = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        if (s0 >= cut) break;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) massBelow += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(below / static_cast<double>(reps), massBelow, 0.02);
}

TEST(DeathProcessRegion, UnboundedRegionSamplesEventually) {
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.2, 2, 2},
        {0.2, kInf, 0, 1},
    };
    const DeathProcess dp(std::move(ivs), 1.0);
    EXPECT_DOUBLE_EQ(dp.completionProbability(), 1.0);
    Mt19937 rng(8);
    for (int r = 0; r < 200; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        ASSERT_EQ(times.size(), 2u);
        EXPECT_LT(times[0], times[1]);
        EXPECT_GT(dp.logDensity(times), -kInf);
    }
}

TEST(DeathProcessRegion, UnboundedDensityIntegratesToOne) {
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.2, 1, 2},
        {0.2, kInf, 0, 1},
    };
    const DeathProcess dp(std::move(ivs), 1.0);
    const int grid = 500;
    const double hi = 12.0;  // integrate far into the exponential tail
    const double h = hi / grid;
    double integral = 0.0;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = dp.logDensity(times);
            if (ld > -kInf) integral += std::exp(ld) * h * h;
        }
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(DeathProcessRegion, DensityRejectsImpossibleConfigurations) {
    const DeathProcess dp = makeBoundedRegion();
    // Wrong count.
    const std::array<double, 1> one{0.5};
    EXPECT_EQ(dp.logDensity(one), -kInf);
    // Unsorted.
    const std::array<double, 2> unsorted{0.6, 0.4};
    EXPECT_EQ(dp.logDensity(unsorted), -kInf);
    // First merge before two lineages exist (only one active before 0.1).
    const std::array<double, 2> early{0.05, 0.5};
    EXPECT_EQ(dp.logDensity(early), -kInf);
    // Merge beyond the bounded region.
    const std::array<double, 2> late{0.3, 1.5};
    EXPECT_EQ(dp.logDensity(late), -kInf);
}

TEST(DeathProcessRegion, ActiveCountBefore) {
    const DeathProcess dp = makeBoundedRegion();
    const std::array<double, 2> times{0.3, 0.6};
    EXPECT_EQ(dp.activeCountBefore(times, 0.05), 1);
    EXPECT_EQ(dp.activeCountBefore(times, 0.2), 2);
    EXPECT_EQ(dp.activeCountBefore(times, 0.29), 3);
    EXPECT_EQ(dp.activeCountBefore(times, 0.5), 2);
    EXPECT_EQ(dp.activeCountBefore(times, 0.9), 1);
}

TEST(DeathProcessRegion, RejectsMalformedIntervals) {
    EXPECT_THROW(DeathProcess({}, 1.0), InvariantError);
    // Negative length.
    EXPECT_THROW(DeathProcess({{0.5, 0.2, 1, 2}}, 1.0), InvariantError);
    // Not contiguous.
    EXPECT_THROW(DeathProcess({{0.0, 0.2, 1, 2}, {0.4, 1.0, 1, 1}}, 1.0), InvariantError);
    // Fewer than two actives.
    EXPECT_THROW(DeathProcess({{0.0, 1.0, 1, 1}}, 1.0), InvariantError);
    // Bad theta.
    EXPECT_THROW(DeathProcess({{0.0, 1.0, 1, 3}}, 0.0), InvariantError);
}

class RegionThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(RegionThetaSweep, SamplingStaysConsistent) {
    const DeathProcess dp = makeBoundedRegion(GetParam());
    Mt19937 rng(11);
    RunningStats s0;
    for (int r = 0; r < 2000; ++r) {
        const auto times = dp.sampleMergeTimes(rng);
        EXPECT_GT(dp.logDensity(times), -kInf);
        s0.add(times[0]);
    }
    EXPECT_GT(s0.mean(), 0.0);
    EXPECT_LT(s0.mean(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Thetas, RegionThetaSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 10.0));

}  // namespace
}  // namespace mpcgs
