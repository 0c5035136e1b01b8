#include "mcmc/gmh.h"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "running_stats.h"

namespace mpcgs {
namespace {

/// Discrete target on {0..3}; proposals drawn iid from a fixed biased
/// distribution q (region-free independence sampler). With the pi/q
/// weighting the GMH chain must still converge to pi.
struct DiscreteGmhProblem {
    using State = int;
    struct Region {};  // state-independent

    std::array<double, 4> pi{0.1, 0.2, 0.3, 0.4};
    std::array<double, 4> q{0.4, 0.3, 0.2, 0.1};  // deliberately mismatched

    double logPosterior(const State& s) const { return std::log(pi[static_cast<std::size_t>(s)]); }
    Region makeRegion(const State&, Rng&) const { return {}; }
    State proposeInRegion(const Region&, Rng& rng) const {
        return static_cast<int>(rng.categorical(std::span<const double>(q)));
    }
    double logProposalDensity(const Region&, const State& s) const {
        return std::log(q[static_cast<std::size_t>(s)]);
    }
};

class GmhProposalCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GmhProposalCountSweep, ConvergesToTargetForAnyN) {
    const DiscreteGmhProblem problem;
    GmhOptions opts;
    opts.numProposals = GetParam();
    opts.samplesPerIteration = 4;
    opts.seed = 321;
    GmhSampler<DiscreteGmhProblem> sampler(problem, opts);

    std::array<double, 4> counts{};
    std::size_t total = 0;
    const std::size_t iters = 60000 / opts.numProposals + 2000;
    sampler.run(0, 500, iters, [&](const int& s) {
        counts[static_cast<std::size_t>(s)] += 1.0;
        ++total;
    });
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(counts[i] / static_cast<double>(total), problem.pi[i], 0.015)
            << "N=" << opts.numProposals << " state " << i;
}

INSTANTIATE_TEST_SUITE_P(ProposalCounts, GmhProposalCountSweep,
                         ::testing::Values(1u, 2u, 8u, 32u));

TEST(GmhSamplerTest, ParallelPoolGivesIdenticalSamples) {
    const DiscreteGmhProblem problem;
    GmhOptions opts;
    opts.numProposals = 16;
    opts.samplesPerIteration = 4;
    opts.seed = 777;

    std::vector<int> serialSamples, parallelSamples;
    {
        GmhSampler<DiscreteGmhProblem> s(problem, opts, nullptr);
        s.run(0, 50, 200, [&](const int& x) { serialSamples.push_back(x); });
    }
    {
        ThreadPool pool(6);
        GmhSampler<DiscreteGmhProblem> s(problem, opts, &pool);
        s.run(0, 50, 200, [&](const int& x) { parallelSamples.push_back(x); });
    }
    // Philox streams are keyed by (iteration, proposal index), so thread
    // scheduling cannot change the chain.
    EXPECT_EQ(serialSamples, parallelSamples);
}

TEST(GmhSamplerTest, StatsAreTracked) {
    const DiscreteGmhProblem problem;
    GmhOptions opts;
    opts.numProposals = 8;
    opts.samplesPerIteration = 2;
    GmhSampler<DiscreteGmhProblem> sampler(problem, opts);
    sampler.run(0, 10, 100, [](const int&) {});
    const GmhStats& st = sampler.stats();
    EXPECT_EQ(st.iterations, 110u);
    EXPECT_EQ(st.samplesDrawn, 220u);
    EXPECT_GT(st.moveRate(), 0.5);  // N=8 independent proposals move often
    EXPECT_GT(st.meanGeneratorWeight, 0.0);
    EXPECT_LT(st.meanGeneratorWeight, 1.0);
}

/// Continuous Gaussian target N(1, 0.5^2); proposals N(0, 2^2) iid.
struct GaussianGmhProblem {
    using State = double;
    struct Region {};
    double logPosterior(const State& x) const {
        return -0.5 * (x - 1.0) * (x - 1.0) / 0.25;
    }
    Region makeRegion(const State&, Rng&) const { return {}; }
    State proposeInRegion(const Region&, Rng& rng) const { return rng.normal(0.0, 2.0); }
    double logProposalDensity(const Region&, const State& x) const {
        return -0.5 * x * x / 4.0 - std::log(2.0);
    }
};

TEST(GmhSamplerTest, GaussianTargetMoments) {
    const GaussianGmhProblem problem;
    GmhOptions opts;
    opts.numProposals = 32;
    opts.samplesPerIteration = 8;
    opts.seed = 5;
    GmhSampler<GaussianGmhProblem> sampler(problem, opts);
    RunningStats rs;
    sampler.run(0.0, 200, 20000, [&](const double& x) { rs.add(x); });
    EXPECT_NEAR(rs.mean(), 1.0, 0.02);
    EXPECT_NEAR(rs.variance(), 0.25, 0.02);
}

/// Region-dependent proposal: the region stores the generator's value and
/// proposals are drawn around it. Density is computable, so pi/q keeps the
/// chain exact even though proposals depend on the current state through
/// the region — the structure the genealogy sampler uses.
struct LocalRegionProblem {
    using State = double;
    struct Region {
        double center;
    };
    double logPosterior(const State& x) const { return -0.5 * x * x; }  // N(0,1)
    Region makeRegion(const State& s, Rng&) const { return Region{s}; }
    State proposeInRegion(const Region& r, Rng& rng) const {
        return r.center + rng.normal(0.0, 1.0);
    }
    double logProposalDensity(const Region& r, const State& x) const {
        const double d = x - r.center;
        return -0.5 * d * d;
    }
};

TEST(GmhSamplerTest, RegionDependentProposalIsExact) {
    const LocalRegionProblem problem;
    GmhOptions opts;
    opts.numProposals = 16;
    opts.samplesPerIteration = 4;
    opts.seed = 6;
    GmhSampler<LocalRegionProblem> sampler(problem, opts);
    RunningStats rs;
    sampler.run(5.0, 500, 40000, [&](const double& x) { rs.add(x); });
    EXPECT_NEAR(rs.mean(), 0.0, 0.02);
    EXPECT_NEAR(rs.variance(), 1.0, 0.05);
}

TEST(GmhSamplerTest, BurnInIterationsAreNotEmitted) {
    const DiscreteGmhProblem problem;
    GmhOptions opts;
    opts.numProposals = 4;
    opts.samplesPerIteration = 3;
    GmhSampler<DiscreteGmhProblem> sampler(problem, opts);
    std::size_t emitted = 0;
    sampler.run(0, 100, 50, [&](const int&) { ++emitted; });
    EXPECT_EQ(emitted, 150u);  // 50 iterations * 3 samples, burn-in silent
}

}  // namespace
}  // namespace mpcgs
