#include "core/recoalesce.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "mcmc/mh.h"
#include "rng/mt19937.h"
#include "util/error.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

/// ((0,1) at 1, ((0,1),2) at 2) with tips 0,1,2.
Genealogy makeThreeTip() {
    Genealogy g(3);
    g.node(3).time = 1.0;
    g.node(4).time = 2.0;
    g.link(3, 0);
    g.link(3, 1);
    g.link(4, 3);
    g.link(4, 2);
    g.setRoot(4);
    return g;
}

TEST(LineageIndexTest, CrossingNodesIdentity) {
    const Genealogy g = makeThreeTip();
    const LineageIndex idx(g, g.root());
    auto nodes = idx.crossingNodes(1.5);
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(nodes, (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(idx.crossingNodes(10.0), std::vector<NodeId>{4});
}

TEST(LineageIndexTest, IntegralPiecewise) {
    const Genealogy g = makeThreeTip();
    const LineageIndex idx(g, g.root());
    // m = 3 on [0,1), 2 on [1,2), 1 above.
    EXPECT_NEAR(idx.integrateCount(0.0, 1.0), 3.0, 1e-12);
    EXPECT_NEAR(idx.integrateCount(0.0, 2.0), 5.0, 1e-12);
    EXPECT_NEAR(idx.integrateCount(0.5, 2.5), 0.5 * 3 + 2 + 0.5, 1e-12);
    EXPECT_NEAR(idx.integrateCount(3.0, 7.0), 4.0, 1e-12);
}

TEST(LineageIndexTest, AttachDensityNormalizes) {
    // Total probability of attaching anywhere (sum over lineages of the
    // attachment density) integrates to 1 over s in (start, inf).
    const Genealogy g = makeThreeTip();
    const LineageIndex idx(g, g.root());
    const double theta = 1.3, start = 0.0;
    double integral = 0.0;
    const double dt = 1e-3;
    for (double s = start; s < 40.0; s += dt) {
        const double mid = s + dt / 2;
        integral += static_cast<double>(idx.crossingNodes(mid).size()) *
                    std::exp(idx.logAttachDensity(start, mid, theta)) * dt;
    }
    EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(LineageIndexTest, SampleAgreesWithDensity) {
    const Genealogy g = makeThreeTip();
    const LineageIndex idx(g, g.root());
    const double theta = 1.0;
    Mt19937 rng(9);
    const int reps = 50000;
    int below = 0;
    const double cut = 1.0;
    for (int r = 0; r < reps; ++r)
        if (idx.sampleAttachTime(0.0, theta, rng) < cut) ++below;
    // P(attach < 1) = 1 - exp(-(2/theta) * integral_0^1 m) = 1 - e^{-6}.
    EXPECT_NEAR(below / static_cast<double>(reps), 1.0 - std::exp(-6.0), 0.01);
}

TEST(RecoalesceTest, ProposalsAreValidTrees) {
    Mt19937 rng(10);
    Genealogy g = simulateCoalescent(8, 1.0, rng);
    for (int r = 0; r < 300; ++r) {
        const auto prop = proposeRecoalesce(g, 1.0, rng);
        EXPECT_NO_THROW(prop.state.validate());
        EXPECT_TRUE(std::isfinite(prop.logForward));
        EXPECT_TRUE(std::isfinite(prop.logReverse));
        g = prop.state;  // walk the chain of proposals
    }
}

TEST(RecoalesceTest, WorksOnTwoTipTrees) {
    Mt19937 rng(11);
    Genealogy g(2);
    g.node(2).time = 0.7;
    g.link(2, 0);
    g.link(2, 1);
    g.setRoot(2);
    for (int r = 0; r < 100; ++r) {
        const auto prop = proposeRecoalesce(g, 2.0, rng);
        EXPECT_NO_THROW(prop.state.validate());
        g = prop.state;
    }
}

TEST(RecoalesceTest, PreservesTipsAndCounts) {
    Mt19937 rng(12);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto prop = proposeRecoalesce(g, 1.0, rng);
    EXPECT_EQ(prop.state.tipCount(), 6);
    EXPECT_EQ(prop.state.nodeCount(), g.nodeCount());
    for (int t = 0; t < 6; ++t) EXPECT_DOUBLE_EQ(prop.state.node(t).time, 0.0);
}

TEST(RecoalesceTest, HastingsRatioConsistentWithPrior) {
    // Because the proposal density is the conditional coalescent prior,
    // logForward - logReverse must equal logPrior(G') - logPrior(G)
    // whenever the topology outside the moved branch is unchanged... in
    // general the identity holds including the topology factor:
    //   q_f / q_r = P(G'|theta) / P(G|theta).
    Mt19937 rng(13);
    Genealogy g = simulateCoalescent(7, 0.8, rng);
    const double theta = 0.8;
    int checked = 0;
    for (int r = 0; r < 200; ++r) {
        const auto prop = proposeRecoalesce(g, theta, rng);
        const double lhs = prop.logForward - prop.logReverse;
        const double rhs =
            logCoalescentPrior(prop.state, theta) - logCoalescentPrior(g, theta);
        EXPECT_NEAR(lhs, rhs, 1e-9) << "rep " << r;
        ++checked;
        g = prop.state;
    }
    EXPECT_EQ(checked, 200);
}

TEST(RecoalesceTest, MhOnPriorMatchesCoalescentMoments) {
    // With a flat likelihood the posterior is the coalescent prior; the MH
    // chain built on recoalescence moves must reproduce its moments.
    struct PriorOnlyProblem {
        using State = Genealogy;
        double theta;
        double logPosterior(const State& g) const { return logCoalescentPrior(g, theta); }
        struct Proposal {
            State state;
            double logForward;
            double logReverse;
        };
        Proposal propose(const State& cur, Rng& rng) const {
            auto r = proposeRecoalesce(cur, theta, rng);
            return Proposal{std::move(r.state), r.logForward, r.logReverse};
        }
    };

    const double theta = 1.0;
    const int n = 5;
    Mt19937 rng(14);
    const PriorOnlyProblem problem{theta};
    MhChain<PriorOnlyProblem> chain(problem, simulateCoalescent(n, theta, rng), 15);

    RunningStats tmrca, wsum;
    chain.run(2000, 60000, [&](const Genealogy& g) {
        tmrca.add(g.tmrca());
        const auto ivs = g.intervals();
        wsum.add(weightedIntervalSum(ivs));
    });
    // E[TMRCA] = theta (1 - 1/n); E[sum k(k-1) t_k] = (n-1) theta.
    EXPECT_NEAR(tmrca.mean(), theta * (1.0 - 1.0 / n), 0.03);
    EXPECT_NEAR(wsum.mean(), (n - 1) * theta, 0.08);
    EXPECT_GT(chain.acceptanceRate(), 0.9);  // prior-only: nearly always accepted
}

TEST(RecoalesceTest, RejectsBadTheta) {
    Mt19937 rng(16);
    const Genealogy g = makeThreeTip();
    EXPECT_THROW(proposeRecoalesce(g, 0.0, rng), ConfigError);
}

}  // namespace
}  // namespace mpcgs
