#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "rng/mt19937.h"
#include "util/error.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

TEST(CoalescentDensity, MatchesEq17) {
    // p_k(t) = (2/theta) exp(-k(k-1) t / theta).
    const double theta = 1.5, t = 0.3;
    for (const int k : {2, 3, 5, 10}) {
        const double expect = std::log(2.0 / theta) - k * (k - 1) * t / theta;
        EXPECT_NEAR(logCoalescentWaitDensity(k, t, theta), expect, 1e-12);
    }
}

TEST(CoalescentDensity, TotalRateIntegratesToOne) {
    // Summed over the k(k-1)/2 equivalent pairs, the waiting time density
    // integrates to 1 (trapezoid quadrature).
    const double theta = 0.8;
    const int k = 4;
    const double pairs = k * (k - 1) / 2.0;
    double integral = 0.0;
    const double dt = 1e-4;
    for (double t = 0.0; t < 4.0; t += dt) {
        integral += pairs * std::exp(logCoalescentWaitDensity(k, t + dt / 2, theta)) * dt;
    }
    EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(CoalescentPrior, MatchesHandComputedTree) {
    // 3-tip tree with intervals: k=3 for t in [0,0.2), k=2 for [0.2,0.9).
    std::vector<CoalInterval> ivs{{0.0, 0.2, 3}, {0.2, 0.9, 2}};
    const double theta = 2.0;
    const double expect = 2.0 * std::log(2.0 / theta) -
                          (6.0 * 0.2 + 2.0 * 0.7) / theta;
    EXPECT_NEAR(logCoalescentPrior(ivs, theta), expect, 1e-12);
}

TEST(CoalescentPrior, GenealogyOverloadAgrees) {
    Genealogy g(3);
    g.node(3).time = 0.2;
    g.node(4).time = 0.9;
    g.link(3, 0);
    g.link(3, 1);
    g.link(4, 3);
    g.link(4, 2);
    g.setRoot(4);
    std::vector<CoalInterval> ivs{{0.0, 0.2, 3}, {0.2, 0.9, 2}};
    EXPECT_NEAR(logCoalescentPrior(g, 1.3),
                logCoalescentPrior(std::span<const CoalInterval>(ivs), 1.3), 1e-12);
}

TEST(CoalescentPrior, SingleTreeMleIsStationaryPoint) {
    std::vector<CoalInterval> ivs{{0.0, 0.1, 4}, {0.1, 0.35, 3}, {0.35, 1.2, 2}};
    const double mle = singleTreeThetaMle(ivs);
    // The central difference of the log prior vanishes there.
    const double h = 1e-6 * mle;
    const double slope =
        (logCoalescentPrior(ivs, mle + h) - logCoalescentPrior(ivs, mle - h)) / (2.0 * h);
    EXPECT_NEAR(slope, 0.0, 1e-6);
    // And it is a maximum: slightly off values give lower prior.
    EXPECT_GT(logCoalescentPrior(ivs, mle), logCoalescentPrior(ivs, mle * 1.1));
    EXPECT_GT(logCoalescentPrior(ivs, mle), logCoalescentPrior(ivs, mle * 0.9));
}

TEST(CoalescentPrior, RejectsBadArguments) {
    std::vector<CoalInterval> ivs{{0.0, 0.1, 2}};
    EXPECT_THROW(logCoalescentPrior(ivs, 0.0), InvariantError);
    EXPECT_THROW(logCoalescentWaitDensity(1, 0.1, 1.0), InvariantError);
}

TEST(Simulator, ProducesValidGenealogies) {
    Mt19937 rng(17);
    for (int rep = 0; rep < 20; ++rep) {
        const Genealogy g = simulateCoalescent(7, 1.0, rng);
        EXPECT_NO_THROW(g.validate());
        EXPECT_EQ(g.tipCount(), 7);
        const auto ivs = g.intervals();
        EXPECT_EQ(ivs.size(), 6u);
        EXPECT_EQ(ivs[0].lineages, 7);
        EXPECT_EQ(ivs.back().lineages, 2);
    }
}

TEST(Simulator, PairwiseCoalescenceTimeMean) {
    // For n = 2, E[TMRCA] = theta / 2 under the Eq. 17 rate convention.
    Mt19937 rng(18);
    const double theta = 2.0;
    RunningStats rs;
    for (int rep = 0; rep < 20000; ++rep)
        rs.add(simulateCoalescent(2, theta, rng).tmrca());
    EXPECT_NEAR(rs.mean(), theta / 2.0, 0.03);
    // Exponential: variance = mean^2.
    EXPECT_NEAR(rs.variance(), theta * theta / 4.0, 0.06);
}

TEST(Simulator, TmrcaMeanMatchesTheory) {
    // E[TMRCA] = theta (1 - 1/n).
    Mt19937 rng(19);
    const double theta = 1.0;
    const int n = 6;
    RunningStats rs;
    for (int rep = 0; rep < 20000; ++rep)
        rs.add(simulateCoalescent(n, theta, rng).tmrca());
    EXPECT_NEAR(rs.mean(), theta * (1.0 - 1.0 / n), 0.02);
}

TEST(Simulator, IntervalMeansMatchTheory) {
    // E[T_k] = theta / (k(k-1)) for each interval.
    Mt19937 rng(20);
    const double theta = 1.0;
    const int n = 5;
    std::vector<RunningStats> perInterval(static_cast<std::size_t>(n - 1));
    for (int rep = 0; rep < 20000; ++rep) {
        const auto ivs = simulateCoalescent(n, theta, rng).intervals();
        for (std::size_t i = 0; i < ivs.size(); ++i) perInterval[i].add(ivs[i].length());
    }
    for (std::size_t i = 0; i < perInterval.size(); ++i) {
        const double k = static_cast<double>(n) - static_cast<double>(i);
        EXPECT_NEAR(perInterval[i].mean(), theta / (k * (k - 1.0)), 0.01)
            << "interval " << i;
    }
}

TEST(Simulator, SampledTreesScoreSaneUnderPrior) {
    // Average log prior of simulated trees should be near the expected
    // log-density (weak sanity bound: finite and not wildly off).
    Mt19937 rng(21);
    RunningStats rs;
    for (int rep = 0; rep < 2000; ++rep)
        rs.add(logCoalescentPrior(simulateCoalescent(4, 1.0, rng), 1.0));
    EXPECT_TRUE(std::isfinite(rs.mean()));
    // Prior evaluated at the generating theta should beat a far-off theta
    // on average (consistency of Eq. 18 with the generator).
    Mt19937 rng2(21);
    RunningStats off;
    for (int rep = 0; rep < 2000; ++rep)
        off.add(logCoalescentPrior(simulateCoalescent(4, 1.0, rng2), 20.0));
    EXPECT_GT(rs.mean(), off.mean());
}

TEST(Simulator, RejectsBadArguments) {
    Mt19937 rng(1);
    EXPECT_THROW(simulateCoalescent(1, 1.0, rng), ConfigError);
    EXPECT_THROW(simulateCoalescent(4, 0.0, rng), ConfigError);
}

}  // namespace
}  // namespace mpcgs
