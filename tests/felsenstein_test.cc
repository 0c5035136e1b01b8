#include "lik/felsenstein.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "util/error.h"

namespace mpcgs {
namespace {

/// Brute-force P(D|G) for one site: enumerate all internal-node nucleotide
/// assignments (Eq. 19-21 without pruning).
double bruteForceSiteLik(const Genealogy& g, const SubstModel& model,
                         const std::vector<NucCode>& tipStates) {
    const BaseFreqs& pi = model.stationary();
    const int nInternal = g.internalCount();
    const int nTips = g.tipCount();
    std::vector<Matrix4> pmat(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId id = 0; id < g.nodeCount(); ++id)
        if (id != g.root()) pmat[static_cast<std::size_t>(id)] = model.transition(g.branchLength(id));

    double total = 0.0;
    const long combos = static_cast<long>(std::pow(4.0, nInternal));
    for (long c = 0; c < combos; ++c) {
        std::vector<NucCode> state(static_cast<std::size_t>(g.nodeCount()));
        long rem = c;
        for (int i = 0; i < nInternal; ++i) {
            state[static_cast<std::size_t>(nTips + i)] = static_cast<NucCode>(rem % 4);
            rem /= 4;
        }
        for (int t = 0; t < nTips; ++t) state[static_cast<std::size_t>(t)] = tipStates[static_cast<std::size_t>(t)];

        double lik = pi[state[static_cast<std::size_t>(g.root())]];
        bool skip = false;
        for (NodeId id = 0; id < g.nodeCount() && !skip; ++id) {
            if (id == g.root()) continue;
            const NucCode childState = state[static_cast<std::size_t>(id)];
            if (childState == kNucUnknown) {
                // Unknown tip: marginalize by splitting into 4 sub-cases is
                // unnecessary here; tests use known tips for brute force.
                skip = true;
                continue;
            }
            const NucCode parentState = state[static_cast<std::size_t>(g.node(id).parent)];
            lik *= pmat[static_cast<std::size_t>(id)](parentState, childState);
        }
        if (!skip) total += lik;
    }
    return total;
}

Genealogy makeFourTip() {
    Genealogy g(4);
    g.node(4).time = 0.1;
    g.node(5).time = 0.25;
    g.node(6).time = 0.4;
    g.link(4, 0);
    g.link(4, 1);
    g.link(5, 2);
    g.link(5, 3);
    g.link(6, 4);
    g.link(6, 5);
    g.setRoot(6);
    return g;
}

Alignment fourTipAlignment() {
    return Alignment({Sequence::fromString("t1", "ACGTA"),
                      Sequence::fromString("t2", "ACGTC"),
                      Sequence::fromString("t3", "AGGTA"),
                      Sequence::fromString("t4", "AGCTA")});
}

TEST(Felsenstein, TwoTipHandComputed) {
    // Two tips A and C joined at t = 0.3 under F81 with uniform pi:
    // L = sum_x pi_x P_xA(0.3) P_xC(0.3).
    Genealogy g(2);
    g.node(2).time = 0.3;
    g.link(2, 0);
    g.link(2, 1);
    g.setRoot(2);
    const F81Model model(kUniformFreqs, 1.0);
    const Alignment aln({Sequence::fromString("a", "A"), Sequence::fromString("b", "C")});
    const DataLikelihood lik(aln, model);
    const Matrix4 p = model.transition(0.3);
    double expect = 0.0;
    for (std::size_t x = 0; x < 4; ++x) expect += 0.25 * p(x, kNucA) * p(x, kNucC);
    EXPECT_NEAR(lik.logLikelihood(g), std::log(expect), 1e-12);
}

TEST(Felsenstein, MatchesBruteForceEnumeration) {
    const Genealogy g = makeFourTip();
    const Alignment aln = fourTipAlignment();
    const F81Model model(aln.baseFrequencies(), 1.0);
    const DataLikelihood lik(aln, model, /*compress=*/false);
    const auto perPattern = lik.patternLogLikelihoods(g);
    ASSERT_EQ(perPattern.size(), aln.length());
    for (std::size_t site = 0; site < aln.length(); ++site) {
        const double brute = bruteForceSiteLik(g, model, aln.column(site));
        EXPECT_NEAR(perPattern[site], std::log(brute), 1e-10) << "site " << site;
    }
}

TEST(Felsenstein, BruteForceAgreementUnderGtr) {
    const Genealogy g = makeFourTip();
    const Alignment aln = fourTipAlignment();
    const auto model = makeHky85(2.0, aln.baseFrequencies());
    const DataLikelihood lik(aln, *model, false);
    const auto perPattern = lik.patternLogLikelihoods(g);
    for (std::size_t site = 0; site < aln.length(); ++site) {
        const double brute = bruteForceSiteLik(g, *model, aln.column(site));
        EXPECT_NEAR(perPattern[site], std::log(brute), 1e-10);
    }
}

TEST(Felsenstein, PatternCompressionInvariance) {
    const Genealogy g = makeFourTip();
    // Alignment with heavily repeated columns.
    const Alignment aln({Sequence::fromString("t1", "AAAACCGTAAAA"),
                         Sequence::fromString("t2", "AAAACCGTAAAA"),
                         Sequence::fromString("t3", "AAAACCGAAAAA"),
                         Sequence::fromString("t4", "AAGACCGAAAGA")});
    const F81Model model(aln.baseFrequencies(), 1.0);
    const DataLikelihood compressed(aln, model, true);
    const DataLikelihood raw(aln, model, false);
    EXPECT_LT(compressed.patternCount(), raw.patternCount());
    EXPECT_NEAR(compressed.logLikelihood(g), raw.logLikelihood(g), 1e-10);
}

TEST(Felsenstein, ParallelMatchesSerial) {
    Mt19937 rng(3);
    const Genealogy g = simulateCoalescent(16, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {400, 1.0}, rng);
    const DataLikelihood lik(aln, *model);
    ThreadPool pool(6);
    const double serial = lik.logLikelihood(g);
    const double parallel = lik.logLikelihood(g, &pool);
    EXPECT_NEAR(serial, parallel, 1e-9);
}

TEST(Felsenstein, UnknownTipActsAsMarginalized) {
    // Likelihood with an N tip equals the sum of the four resolved
    // likelihoods.
    Genealogy g(2);
    g.node(2).time = 0.4;
    g.link(2, 0);
    g.link(2, 1);
    g.setRoot(2);
    const F81Model model(kUniformFreqs, 1.0);
    double resolvedSum = 0.0;
    for (const char c : {'A', 'C', 'G', 'T'}) {
        const Alignment aln({Sequence::fromString("a", std::string(1, c)),
                             Sequence::fromString("b", "G")});
        resolvedSum += std::exp(DataLikelihood(aln, model).logLikelihood(g));
    }
    const Alignment alnN({Sequence::fromString("a", "N"), Sequence::fromString("b", "G")});
    EXPECT_NEAR(std::exp(DataLikelihood(alnN, model).logLikelihood(g)), resolvedSum, 1e-12);
}

TEST(Felsenstein, IdenticalSequencesFavorShortTrees) {
    const Alignment aln({Sequence::fromString("t1", "ACGTACGTAC"),
                         Sequence::fromString("t2", "ACGTACGTAC"),
                         Sequence::fromString("t3", "ACGTACGTAC"),
                         Sequence::fromString("t4", "ACGTACGTAC")});
    const F81Model model(aln.baseFrequencies(), 1.0);
    const DataLikelihood lik(aln, model);
    Genealogy shortTree = makeFourTip();
    Genealogy longTree = makeFourTip();
    longTree.scaleTimes(20.0);
    EXPECT_GT(lik.logLikelihood(shortTree), lik.logLikelihood(longTree));
}

TEST(Felsenstein, DeepTreeDoesNotUnderflow) {
    // A long caterpillar with many sites: partial products underflow in
    // naive linear space; the scaling path must keep log-likelihood finite.
    const int n = 64;
    Genealogy g(n);
    NodeId prev = 0;
    for (int i = 0; i < n - 1; ++i) {
        const NodeId internal = n + i;
        g.node(internal).time = 4.0 * (i + 1);  // long branches
        g.link(internal, prev);
        g.link(internal, i + 1);
        prev = internal;
    }
    g.setRoot(prev);
    g.validate();

    std::vector<Sequence> seqs;
    for (int i = 0; i < n; ++i)
        seqs.push_back(Sequence::fromString("s" + std::to_string(i), i % 2 ? "ACGT" : "TGCA"));
    const Alignment aln{std::move(seqs)};
    const F81Model model(kUniformFreqs, 1.0);
    const double ll = DataLikelihood(aln, model).logLikelihood(g);
    EXPECT_TRUE(std::isfinite(ll));
    EXPECT_LT(ll, 0.0);
}

TEST(Felsenstein, TipCountMismatchThrows) {
    const Genealogy g = makeFourTip();
    const Alignment aln({Sequence::fromString("a", "A"), Sequence::fromString("b", "C")});
    const F81Model model(kUniformFreqs, 1.0);
    const DataLikelihood lik(aln, model);
    EXPECT_THROW(lik.logLikelihood(g), InvariantError);
}

// --- arena evaluation (a chain's kept evaluation) --------------------------

TEST(LikelihoodCacheTest, FullEvaluationMatchesDirect) {
    Mt19937 rng(4);
    const Genealogy g = simulateCoalescent(10, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {120, 1.0}, rng);
    const DataLikelihood lik(aln, *model);
    PartialsBuffer arena;
    EXPECT_NEAR(lik.engine().evaluate(g, arena), lik.logLikelihood(g), 1e-10);
}

TEST(LikelihoodCacheTest, DirtyUpdateMatchesFullRecompute) {
    Mt19937 rng(5);
    Genealogy g = simulateCoalescent(10, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {120, 1.0}, rng);
    const DataLikelihood lik(aln, *model);
    PartialsBuffer arena;
    lik.engine().evaluate(g, arena);

    // Perturb one internal node's time (staying valid) and update dirty.
    const auto internals = g.internalsByTime();
    const NodeId moved = internals[internals.size() / 2];
    const TreeNode& nd = g.node(moved);
    double lo = std::max(g.node(nd.child[0]).time, g.node(nd.child[1]).time);
    double hi = (nd.parent == kNoNode) ? nd.time + 1.0 : g.node(nd.parent).time;
    g.node(moved).time = 0.5 * (lo + hi);
    g.validate();

    // The dirty update takes its rescale schedule from the tree it
    // evaluates, so it is a full evaluation bitwise, not just closely.
    const NodeId dirty[] = {moved, nd.child[0], nd.child[1]};
    const double incremental = lik.engine().evaluateDirty(g, dirty, arena);
    EXPECT_EQ(incremental, lik.logLikelihood(g));
    EXPECT_NEAR(incremental, lik.logLikelihoodReference(g), 1e-10);
}

TEST(LikelihoodCacheTest, DirtyWithoutEvaluateThrows) {
    Mt19937 rng(6);
    const Genealogy g = simulateCoalescent(5, 1.0, rng);
    const auto model = makeJc69();
    const Alignment aln = simulateSequences(g, *model, {50, 1.0}, rng);
    const DataLikelihood lik(aln, *model);
    PartialsBuffer arena;
    const NodeId dirty[] = {0};
    EXPECT_THROW(lik.engine().evaluateDirty(g, dirty, arena), InvariantError);
}

}  // namespace
}  // namespace mpcgs
