#include "mcmc/mh.h"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "running_stats.h"

namespace mpcgs {
namespace {

/// Discrete toy target on {0..4} with an asymmetric random-walk proposal,
/// to exercise the Hastings correction.
struct DiscreteProblem {
    using State = int;
    std::array<double, 5> logPi{};

    DiscreteProblem() {
        const std::array<double, 5> pi{0.05, 0.1, 0.2, 0.3, 0.35};
        for (std::size_t i = 0; i < 5; ++i) logPi[i] = std::log(pi[i]);
    }

    double logPosterior(const State& s) const { return logPi[static_cast<std::size_t>(s)]; }

    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };

    // Move +1 w.p. 0.7, -1 w.p. 0.3 (reflecting at the ends).
    Proposal propose(const State& cur, Rng& rng) const {
        const bool up = rng.uniform01() < 0.7;
        int next = cur + (up ? 1 : -1);
        if (next < 0) next = 0;
        if (next > 4) next = 4;
        auto q = [](int from, int to) {
            if (to == from + 1 || (from == 4 && to == 4)) return 0.7;
            if (to == from - 1 || (from == 0 && to == 0)) return 0.3;
            return 0.0;
        };
        return Proposal{next, std::log(q(cur, next)), std::log(q(next, cur))};
    }
};

TEST(MhChainTest, ConvergesToTargetDistribution) {
    const DiscreteProblem problem;
    MhChain<DiscreteProblem> chain(problem, 0, /*seed=*/123);
    std::array<double, 5> counts{};
    const std::size_t n = 400000;
    chain.run(5000, n, [&](const int& s) { counts[static_cast<std::size_t>(s)] += 1.0; });
    const std::array<double, 5> pi{0.05, 0.1, 0.2, 0.3, 0.35};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_NEAR(counts[i] / static_cast<double>(n), pi[i], 0.01) << "state " << i;
}

TEST(MhChainTest, TracksAcceptanceRate) {
    const DiscreteProblem problem;
    MhChain<DiscreteProblem> chain(problem, 0, 7);
    chain.run(0, 10000, [](const int&) {});
    EXPECT_GT(chain.acceptanceRate(), 0.2);
    EXPECT_LT(chain.acceptanceRate(), 1.0);
    EXPECT_EQ(chain.steps(), 10000u);
}

TEST(MhChainTest, CurrentLogPosteriorStaysInSync) {
    const DiscreteProblem problem;
    MhChain<DiscreteProblem> chain(problem, 2, 99);
    for (int i = 0; i < 100; ++i) {
        chain.step();
        EXPECT_DOUBLE_EQ(chain.currentLogPosterior(), problem.logPosterior(chain.current()));
    }
}

TEST(MhChainTest, DeterministicGivenSeed) {
    const DiscreteProblem problem;
    MhChain<DiscreteProblem> a(problem, 0, 42), b(problem, 0, 42);
    std::vector<int> sa, sb;
    a.run(100, 1000, [&](const int& s) { sa.push_back(s); });
    b.run(100, 1000, [&](const int& s) { sb.push_back(s); });
    EXPECT_EQ(sa, sb);
}

/// Continuous target: N(3, 2^2) with a symmetric Gaussian random walk.
struct GaussianProblem {
    using State = double;
    double logPosterior(const State& x) const { return -0.5 * (x - 3.0) * (x - 3.0) / 4.0; }
    struct Proposal {
        State state;
        double logForward;
        double logReverse;
    };
    Proposal propose(const State& cur, Rng& rng) const {
        return Proposal{cur + rng.normal(0.0, 1.5), 0.0, 0.0};  // symmetric
    }
};

TEST(MhChainTest, GaussianMoments) {
    const GaussianProblem problem;
    MhChain<GaussianProblem> chain(problem, -10.0, 5);
    RunningStats rs;
    chain.run(2000, 200000, [&](const double& x) { rs.add(x); });
    EXPECT_NEAR(rs.mean(), 3.0, 0.1);
    EXPECT_NEAR(rs.variance(), 4.0, 0.3);
}

}  // namespace
}  // namespace mpcgs
