// Cross-module property tests: randomized round-trips and distributional
// identities that tie several subsystems together.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "coalescent/death_process.h"
#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "lik/felsenstein.h"
#include "mcmc/gmh.h"
#include "mcmc/mh.h"
#include "phylo/newick.h"
#include "rng/mt19937.h"
#include "rng/philox.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/stats.h"
#include "running_stats.h"

namespace mpcgs {
namespace {

// --- Newick round-trip over random coalescent trees --------------------------

class NewickRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NewickRoundTrip, PreservesTimesAndTopology) {
    const int n = GetParam();
    Mt19937 rng(static_cast<unsigned>(100 + n));
    for (int rep = 0; rep < 10; ++rep) {
        const Genealogy g = simulateCoalescent(n, 0.8, rng);
        const Genealogy back = fromNewick(toNewick(g));
        ASSERT_EQ(back.tipCount(), n);
        EXPECT_NEAR(back.tmrca(), g.tmrca(), 1e-7 * g.tmrca());
        // Parent height of every named tip survives the round trip — a
        // topology fingerprint.
        for (int tip = 0; tip < n; ++tip) {
            const NodeId orig = tip;
            const NodeId mapped = back.tipByName(g.tipNames()[static_cast<std::size_t>(tip)]);
            ASSERT_NE(mapped, kNoNode);
            EXPECT_NEAR(back.node(back.node(mapped).parent).time,
                        g.node(g.node(orig).parent).time, 1e-7 * g.tmrca());
        }
        // Interval structure (and therefore the prior) is preserved.
        EXPECT_NEAR(logCoalescentPrior(back, 1.0), logCoalescentPrior(g, 1.0), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, NewickRoundTrip, ::testing::Values(2, 3, 5, 8, 16, 64));

// --- PHYLIP round-trip over random alignments --------------------------------

class PhylipRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PhylipRoundTrip, PreservesEverySequence) {
    const std::size_t length = GetParam();
    Mt19937 rng(7);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    const auto model = makeHky85(3.0, BaseFreqs{0.4, 0.1, 0.15, 0.35});
    const Alignment aln = simulateSequences(g, *model, {length, 1.0}, rng);
    const Alignment back = readPhylipString(writePhylipString(aln));
    ASSERT_EQ(back.sequenceCount(), aln.sequenceCount());
    for (std::size_t i = 0; i < aln.sequenceCount(); ++i)
        EXPECT_EQ(back.sequence(i).toString(), aln.sequence(i).toString());
}

INSTANTIATE_TEST_SUITE_P(Lengths, PhylipRoundTrip, ::testing::Values(1u, 33u, 64u, 200u, 1001u));

// --- seq-gen divergence matches the analytic transition probabilities --------

TEST(SeqgenProperty, PairwiseDivergenceMatchesModel) {
    // Two tips at height t: P(site differs) = sum_x pi_x (1 - P_xx(2t)).
    Genealogy g(2);
    const double t = 0.35;
    g.node(2).time = t;
    g.link(2, 0);
    g.link(2, 1);
    g.setRoot(2);

    const BaseFreqs pi{0.3, 0.2, 0.3, 0.2};
    const auto model = makeF84(2.0, pi);
    const Matrix4 p2t = model->transition(2.0 * t);
    double expectDiff = 0.0;
    for (std::size_t x = 0; x < 4; ++x) expectDiff += pi[x] * (1.0 - p2t(x, x));

    Mt19937 rng(9);
    RunningStats frac;
    for (int rep = 0; rep < 100; ++rep) {
        const Alignment aln = simulateSequences(g, *model, {400, 1.0}, rng);
        frac.add(static_cast<double>(aln.sequence(0).hammingDistance(aln.sequence(1))) / 400.0);
    }
    EXPECT_NEAR(frac.mean(), expectDiff, 0.01);
}

TEST(SeqgenProperty, BaseCompositionMatchesStationary) {
    Mt19937 rng(10);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    const BaseFreqs pi{0.45, 0.05, 0.25, 0.25};
    const auto model = makeHky85(2.0, pi);
    const Alignment aln = simulateSequences(g, *model, {5000, 1.0}, rng);
    const BaseFreqs observed = aln.baseFrequencies();
    for (std::size_t x = 0; x < 4; ++x) EXPECT_NEAR(observed[x], pi[x], 0.02);
}

// --- death process generalizes beyond three actives ---------------------------

TEST(DeathProcessProperty, RowSumsForLargerActiveCounts) {
    for (int a = 1; a <= 6; ++a) {
        for (const int m : {0, 2}) {
            for (const double t : {0.05, 0.4, 2.0}) {
                double sum = 0.0;
                for (int b = 1; b <= a; ++b)
                    sum += DeathProcess::transitionProb(a, b, t, m, 1.0);
                EXPECT_NEAR(sum, 1.0, 1e-9) << "a=" << a << " m=" << m << " t=" << t;
            }
        }
    }
}

TEST(DeathProcessProperty, ChapmanKolmogorovAtFiveActives) {
    const int m = 1;
    const double theta = 0.7, s = 0.2, t = 0.35;
    for (int b = 1; b <= 5; ++b) {
        double conv = 0.0;
        for (int k = b; k <= 5; ++k)
            conv += DeathProcess::transitionProb(5, k, s, m, theta) *
                    DeathProcess::transitionProb(k, b, t, m, theta);
        EXPECT_NEAR(conv, DeathProcess::transitionProb(5, b, s + t, m, theta), 1e-9);
    }
}

TEST(DeathProcessProperty, FiveLineageRegionSamplesConsistently) {
    // A 5-active bounded region (beyond the neighbourhood kernel's 3):
    // the machinery is generic and must stay normalized.
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.3, 2, 3},
        {0.3, 0.6, 1, 1},
        {0.6, 2.0, 0, 1},
    };
    const DeathProcess dp(std::move(ivs), 1.0);
    EXPECT_EQ(dp.totalActive(), 5);
    EXPECT_GT(dp.completionProbability(), 0.0);
    Mt19937 rng(11);
    for (int rep = 0; rep < 300; ++rep) {
        const auto times = dp.sampleMergeTimes(rng);
        ASSERT_EQ(times.size(), 4u);
        for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LT(times[i - 1], times[i]);
        EXPECT_LT(times.back(), 2.0);
        EXPECT_GT(dp.logDensity(times), -std::numeric_limits<double>::infinity());
    }
}

// --- samplers agree on the same genealogy posterior ---------------------------

TEST(SamplerAgreement, GmhAndMhSampleTheSamePosterior) {
    Mt19937 rng(12);
    const Genealogy truth = simulateCoalescent(7, 1.0, rng);
    const auto gen = makeJc69();
    const Alignment data = simulateSequences(truth, *gen, {250, 1.0}, rng);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    const double theta = 1.0;

    Genealogy init = simulateCoalescent(7, theta, rng);
    init.setTipNames(data.names());

    RunningStats mhT, gmhT;
    {
        const MhGenealogyProblem problem(lik, theta);
        MhChain<MhGenealogyProblem> chain(problem, init, 13);
        chain.run(3000, 30000, [&](const Genealogy& g) { mhT.add(g.tmrca()); });
    }
    {
        const GmhGenealogyProblem problem(lik, theta);
        GmhOptions opts;
        opts.numProposals = 16;
        opts.samplesPerIteration = 16;
        opts.seed = 14;
        GmhSampler<GmhGenealogyProblem> sampler(problem, opts);
        sampler.run(init, 200, 2000, [&](const Genealogy& g) { gmhT.add(g.tmrca()); });
    }
    // Same target: posterior mean TMRCA agrees within sampling error.
    EXPECT_NEAR(gmhT.mean(), mhT.mean(), 0.15 * mhT.mean());
}

// --- RNG stream independence across the proposal grid -------------------------

TEST(PhiloxProperty, GridOfStreamsIsPairwiseDecorrelated) {
    // Correlation across the (iteration, proposal) keying used by the GMH
    // engine: adjacent streams share nothing detectable.
    const int streams = 32, draws = 2000;
    std::vector<std::vector<double>> u(streams);
    for (int s = 0; s < streams; ++s) {
        Philox rng(99, static_cast<std::uint64_t>(s));
        for (int d = 0; d < draws; ++d) u[static_cast<std::size_t>(s)].push_back(rng.uniform01());
    }
    for (int s = 1; s < streams; ++s) {
        const double r = pearson(u[static_cast<std::size_t>(s - 1)], u[static_cast<std::size_t>(s)]);
        EXPECT_LT(std::fabs(r), 0.08) << "streams " << s - 1 << "," << s;
    }
}

}  // namespace
}  // namespace mpcgs
