#include "core/neighborhood.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "mcmc/gmh.h"
#include "rng/mt19937.h"
#include "util/error.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Caterpillar 4-tip tree: (((0,1)@4 t=1, 2)@5 t=2, 3)@6 t=3.
Genealogy makeCaterpillar() {
    Genealogy g(4);
    g.node(4).time = 1.0;
    g.node(5).time = 2.0;
    g.node(6).time = 3.0;
    g.link(4, 0);
    g.link(4, 1);
    g.link(5, 4);
    g.link(5, 2);
    g.link(6, 5);
    g.link(6, 3);
    g.setRoot(6);
    return g;
}

TEST(NeighborhoodRegionTest, TargetCount) {
    EXPECT_EQ(neighborhoodTargetCount(makeCaterpillar()), 2);  // nodes 4 and 5
    Mt19937 rng(1);
    EXPECT_EQ(neighborhoodTargetCount(simulateCoalescent(12, 1.0, rng)), 10);
}

TEST(NeighborhoodRegionTest, BoundedRegionStructure) {
    const Genealogy g = makeCaterpillar();
    // Target node 4: parent 5, ancestor 6 (bounded at t=3).
    const NeighborhoodRegion r = makeNeighborhoodRegion(g, 4, 1.0);
    EXPECT_EQ(r.target, 4);
    EXPECT_EQ(r.parent, 5);
    EXPECT_EQ(r.ancestor, 6);
    // Children: tips 0, 1 (children of 4) and tip 2 (sibling of 4).
    std::array<NodeId, 3> kids = r.children;
    std::sort(kids.begin(), kids.end());
    EXPECT_EQ(kids, (std::array<NodeId, 3>{0, 1, 2}));
    EXPECT_EQ(r.process->totalActive(), 3);
    EXPECT_GT(r.process->completionProbability(), 0.0);

    // Feasible intervals span [0, 3) and are contiguous.
    const auto& ivs = r.process->intervals();
    EXPECT_DOUBLE_EQ(ivs.front().begin, 0.0);
    EXPECT_DOUBLE_EQ(ivs.back().end, 3.0);
    for (std::size_t i = 0; i + 1 < ivs.size(); ++i)
        EXPECT_DOUBLE_EQ(ivs[i].end, ivs[i + 1].begin);
    // All three children are tips: all actives enter at 0.
    EXPECT_EQ(ivs.front().activeEnter, 3);
    // Inactive lineage: only tip 3's branch crosses the region.
    for (const auto& iv : ivs) EXPECT_EQ(iv.inactive, 1);
}

TEST(NeighborhoodRegionTest, UnboundedRegionWhenParentIsRoot) {
    const Genealogy g = makeCaterpillar();
    // Target node 5: parent 6 is the root -> unbounded region.
    const NeighborhoodRegion r = makeNeighborhoodRegion(g, 5, 1.0);
    EXPECT_EQ(r.ancestor, kNoNode);
    EXPECT_DOUBLE_EQ(r.process->completionProbability(), 1.0);
    EXPECT_FALSE(std::isfinite(r.process->intervals().back().end));
    // Children: node 4, tip 2, tip 3.
    std::array<NodeId, 3> kids = r.children;
    std::sort(kids.begin(), kids.end());
    EXPECT_EQ(kids, (std::array<NodeId, 3>{2, 3, 4}));
}

TEST(NeighborhoodRegionTest, RejectsInvalidTargets) {
    const Genealogy g = makeCaterpillar();
    EXPECT_THROW(makeNeighborhoodRegion(g, 0, 1.0), InvariantError);       // tip
    EXPECT_THROW(makeNeighborhoodRegion(g, g.root(), 1.0), InvariantError);  // root
    EXPECT_THROW(makeNeighborhoodRegion(g, 4, 0.0), InvariantError);       // theta
}

TEST(NeighborhoodProposeTest, ProposalsAreValidAndConfinedToRegion) {
    const Genealogy g = makeCaterpillar();
    const NeighborhoodRegion r = makeNeighborhoodRegion(g, 4, 1.0);
    Mt19937 rng(2);
    for (int rep = 0; rep < 300; ++rep) {
        const Genealogy p = proposeInNeighborhood(r, rng);
        EXPECT_NO_THROW(p.validate());
        // The untouched part is bit-identical: root time, tip 3 attachment.
        EXPECT_DOUBLE_EQ(p.node(6).time, 3.0);
        EXPECT_EQ(p.node(3).parent, 6);
        // T below P, both inside (0, 3).
        EXPECT_LT(p.node(4).time, p.node(5).time);
        EXPECT_GT(p.node(4).time, 0.0);
        EXPECT_LT(p.node(5).time, 3.0);
        // T is P's child, P is child of the ancestor.
        EXPECT_EQ(p.node(4).parent, 5);
        EXPECT_EQ(p.node(5).parent, 6);
    }
}

TEST(NeighborhoodProposeTest, TopologyIsRearranged) {
    // With three tips as children, all three pairings of the first merge
    // must occur.
    const Genealogy g = makeCaterpillar();
    const NeighborhoodRegion r = makeNeighborhoodRegion(g, 4, 1.0);
    Mt19937 rng(3);
    std::set<std::pair<NodeId, NodeId>> pairings;
    for (int rep = 0; rep < 300; ++rep) {
        const Genealogy p = proposeInNeighborhood(r, rng);
        NodeId a = p.node(4).child[0], b = p.node(4).child[1];
        if (a > b) std::swap(a, b);
        pairings.insert({a, b});
    }
    EXPECT_EQ(pairings.size(), 3u);  // {0,1}, {0,2}, {1,2}
}

TEST(NeighborhoodDensityTest, GeneratorAndProposalsHaveFiniteDensity) {
    Mt19937 rng(4);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    for (int t = 0; t < 20; ++t) {
        const NeighborhoodRegion r = makeNeighborhoodRegion(g, 1.0, rng);
        EXPECT_GT(logNeighborhoodDensity(r, g), -kInf)
            << "generator must be reachable in its own region";
        for (int rep = 0; rep < 20; ++rep) {
            const Genealogy p = proposeInNeighborhood(r, rng);
            EXPECT_GT(logNeighborhoodDensity(r, p), -kInf);
        }
    }
}

TEST(NeighborhoodDensityTest, MutualProposability) {
    // Every member of a proposal set must be able to regenerate the rest:
    // with the shared region, each proposal's density is positive when
    // evaluated from the region built on any other member (§4.3).
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const NodeId target = (g.root() == g.tipCount()) ? g.tipCount() + 1 : g.tipCount();
    const NeighborhoodRegion r0 = makeNeighborhoodRegion(g, target, 1.0);
    std::vector<Genealogy> members{g};
    for (int i = 0; i < 6; ++i) members.push_back(proposeInNeighborhood(r0, rng));
    for (const auto& gen : members) {
        const NeighborhoodRegion r = makeNeighborhoodRegion(gen, r0.target, 1.0);
        for (const auto& other : members)
            EXPECT_GT(logNeighborhoodDensity(r, other), -kInf);
    }
}

TEST(NeighborhoodDensityTest, MonteCarloCdfMatchesDensity) {
    // Empirical frequency of "first merge below cut" vs 2-D quadrature of
    // exp(logNeighborhoodDensity) restricted to one pairing.
    const Genealogy g = makeCaterpillar();
    const double theta = 1.0;
    const NeighborhoodRegion r = makeNeighborhoodRegion(g, 4, theta);
    Mt19937 rng(6);
    const int reps = 30000;
    int hit = 0;
    const double cut = 1.0;
    for (int rep = 0; rep < reps; ++rep) {
        const Genealogy p = proposeInNeighborhood(r, rng);
        if (p.node(4).time < cut) ++hit;
    }
    // Quadrature over s0 in (0, cut), s1 in (s0, 3): density marginalized
    // over the 3 equally likely pairings (all children are tips, so the
    // pairing factor is constant 1/3 and sums out). The mass below the cut
    // is normalized by the quadrature total so midpoint-rule bias cancels.
    const int grid = 900;
    double massBelow = 0.0, massTotal = 0.0;
    const double h = 3.0 / grid;
    for (int i = 0; i < grid; ++i) {
        const double s0 = (i + 0.5) * h;
        for (int j = i + 1; j < grid; ++j) {
            const double s1 = (j + 0.5) * h;
            const std::array<double, 2> times{s0, s1};
            const double ld = r.process->logDensity(times);
            if (ld > -kInf) {
                const double cell = std::exp(ld) * h * h;
                massTotal += cell;
                if (s0 < cut) massBelow += cell;
            }
        }
    }
    EXPECT_NEAR(massTotal, 1.0, 0.02);  // density normalizes on the region
    EXPECT_NEAR(hit / static_cast<double>(reps), massBelow / massTotal, 0.01);
}

TEST(NeighborhoodGmhTest, PriorOnlySamplingMatchesCoalescentMoments) {
    // Flat likelihood: the GMH sampler over neighbourhood proposals must
    // reproduce the coalescent prior's moments — this exercises the whole
    // §4.2/4.3 stack (regions, death process, pairing, pi/q weights).
    struct PriorOnlyProblem {
        using State = Genealogy;
        using Region = NeighborhoodRegion;
        double theta;
        double logPosterior(const State& g) const { return logCoalescentPrior(g, theta); }
        Region makeRegion(const State& s, Rng& rng) const {
            return makeNeighborhoodRegion(s, theta, rng);
        }
        State proposeInRegion(const Region& r, Rng& rng) const {
            return proposeInNeighborhood(r, rng);
        }
        double logProposalDensity(const Region& r, const State& s) const {
            return logNeighborhoodDensity(r, s);
        }
    };

    const double theta = 1.0;
    const int n = 5;
    Mt19937 rng(7);
    const PriorOnlyProblem problem{theta};
    GmhOptions opts;
    opts.numProposals = 8;
    opts.samplesPerIteration = 4;
    opts.seed = 99;
    GmhSampler<PriorOnlyProblem> sampler(problem, opts);

    RunningStats tmrca, wsum;
    sampler.run(simulateCoalescent(n, theta, rng), 500, 15000, [&](const Genealogy& g) {
        tmrca.add(g.tmrca());
        const auto ivs = g.intervals();
        wsum.add(weightedIntervalSum(ivs));
    });
    EXPECT_NEAR(tmrca.mean(), theta * (1.0 - 1.0 / n), 0.05);
    EXPECT_NEAR(wsum.mean(), (n - 1) * theta, 0.12);
    EXPECT_GT(sampler.stats().moveRate(), 0.5);
}

}  // namespace
}  // namespace mpcgs
