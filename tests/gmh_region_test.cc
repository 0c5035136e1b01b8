// GMH region evaluation: a proposal's likelihood computed over one shared
// evaluation of its generator (LikelihoodEngine::evaluateRegion, reached
// by GmhSampler through the problems' region hook) must equal a full
// evaluation of the proposal bitwise, for any region: unbounded ones where
// P is the root, deep paths whose rescale levels move, several rate
// categories, unknown sites, and both GMH problems. A chain run through the
// hook must equal the chain that evaluates every proposal in full.
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "core/growth_estimator.h"
#include "core/neighborhood.h"
#include "lik/felsenstein.h"
#include "lik/partials_buffer.h"
#include "mcmc/gmh.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

/// Simulated data; with nEvery > 0, every nEvery-th site of every third
/// sequence becomes N.
Alignment simulatedData(int n, std::size_t length, unsigned seed, double scale = 1.0,
                        std::size_t nEvery = 0) {
    Mt19937 rng(seed);
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    Alignment aln = simulateSequences(truth, *gen, {length, scale}, rng);
    if (nEvery == 0) return aln;
    std::vector<Sequence> seqs;
    for (std::size_t s = 0; s < aln.sequenceCount(); ++s) {
        std::string chars = aln.sequence(s).toString();
        if (s % 3 == 0)
            for (std::size_t i = 0; i < chars.size(); i += nEvery) chars[i] = 'N';
        seqs.push_back(Sequence::fromString(aln.sequence(s).name(), chars));
    }
    return Alignment(std::move(seqs));
}

/// `perTarget` proposals in the region of every non-root internal node of
/// `g`, each scored over one evaluation of `g`; returns how many regions
/// were unbounded (P the root).
int expectRegionsMatch(const DataLikelihood& lik, const Genealogy& g, Rng& rng,
                       int perTarget) {
    PartialsBuffer arena;
    lik.engine().evaluate(g, arena);
    int unbounded = 0;
    for (NodeId target = g.tipCount(); target < g.nodeCount(); ++target) {
        if (target == g.root()) continue;
        const NeighborhoodRegion region = makeNeighborhoodRegion(g, target, 1.0);
        unbounded += region.ancestor == kNoNode;
        const std::array<NodeId, 2> changed{region.target, region.parent};
        for (int k = 0; k < perTarget; ++k) {
            const Genealogy member = proposeInNeighborhood(region, rng);
            EXPECT_EQ(lik.engine().evaluateRegion(member, changed, arena),
                      lik.logLikelihood(member))
                << "target " << target << " proposal " << k;
        }
    }
    return unbounded;
}

TEST(RegionLikelihoodTest, RandomRegionsMatchFullEvaluationBitwise) {
    for (const int n : {4, 9, 24}) {
        Mt19937 rng(100 + static_cast<unsigned>(n));
        const Alignment data = simulatedData(n, 400, 100 + static_cast<unsigned>(n));
        const F81Model model(data.baseFrequencies());
        const DataLikelihood lik(data, model);
        for (int rep = 0; rep < 3; ++rep) {
            SCOPED_TRACE(std::to_string(n) + " tips, genealogy " + std::to_string(rep));
            const Genealogy g = simulateCoalescent(n, 1.0, rng);
            // Every genealogy has an internal child of the root, whose
            // region is unbounded.
            EXPECT_GE(expectRegionsMatch(lik, g, rng, 6), 1);
        }
    }
}

/// A caterpillar: internal node n + k joins node n + k - 1 (tip 0 for
/// k = 0) and tip k + 1, so levels run 1..n-1 up the spine.
Genealogy caterpillar(int n, double step) {
    Genealogy g(n);
    for (int k = 0; k + 1 < n; ++k) {
        const NodeId node = n + k;
        g.node(node).time = step * (k + 1);
        g.link(node, k == 0 ? 0 : node - 1);
        g.link(node, k + 1);
    }
    g.setRoot(2 * n - 2);
    g.validate();
    return g;
}

TEST(RegionLikelihoodTest, DeepCaterpillarPathsRescale) {
    // 20 levels: the spine rescales at levels 4, 8, 12 and 16, and a
    // proposal low on the spine shifts every level above it.
    const int n = 20;
    const Alignment data = simulatedData(n, 300, 7, 2.0);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    Genealogy g = caterpillar(n, 0.15);
    g.setTipNames(data.names());
    Mt19937 rng(8);
    EXPECT_EQ(expectRegionsMatch(lik, g, rng, 8), 1);
    EXPECT_NEAR(lik.logLikelihood(g), lik.logLikelihoodReference(g), 1e-10);
}

TEST(RegionLikelihoodTest, GammaCategoriesMatch) {
    const Alignment data = simulatedData(12, 500, 17);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::discreteGamma(0.5, 4));
    Mt19937 rng(18);
    for (int rep = 0; rep < 2; ++rep) expectRegionsMatch(lik, simulateCoalescent(12, 1.0, rng), rng, 4);
}

TEST(RegionLikelihoodTest, UnknownSitesMatch) {
    const Alignment data = simulatedData(10, 360, 27, 1.0, /*nEvery=*/5);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Mt19937 rng(28);
    for (int rep = 0; rep < 2; ++rep) expectRegionsMatch(lik, simulateCoalescent(10, 1.0, rng), rng, 4);
}

/// Both GMH problems score a proposal through the hook exactly as their
/// full posterior does, whether the arena was evaluated on a pool or
/// serially, and after the arena has been moved along a chain of members.
template <class Problem>
void expectHookMatchesPosterior(const Problem& problem, Genealogy g, Rng& rng,
                                ThreadPool* pool) {
    static_assert(RegionEvaluated<Problem>);
    PartialsBuffer arena;
    problem.evaluateGenerator(g, arena, pool);
    for (int set = 0; set < 6; ++set) {
        const NeighborhoodRegion region = problem.makeRegion(g, rng);
        for (int k = 0; k < 4; ++k) {
            Genealogy member = problem.proposeInRegion(region, rng);
            EXPECT_EQ(problem.logPosterior(region, arena, member), problem.logPosterior(member))
                << "set " << set << " proposal " << k;
            if (k == 3) {
                problem.moveGenerator(region, member, arena, pool);
                g = std::move(member);
            }
        }
    }
}

TEST(RegionLikelihoodTest, BothGmhProblemsScoreProposalsAsTheirPosterior) {
    const Alignment data = simulatedData(14, 400, 37);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Mt19937 rng(38);
    Genealogy g = simulateCoalescent(14, 1.0, rng);
    g.setTipNames(data.names());
    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        expectHookMatchesPosterior(GmhGenealogyProblem(lik, 1.0), g, rng, p);
        expectHookMatchesPosterior(GrowthGenealogyProblem(lik, GrowthParams{1.0, 2.0}), g, rng, p);
    }
}

/// GmhGenealogyProblem without its region hook: every proposal pays a full
/// evaluation.
class FullEvaluationProblem {
  public:
    using State = Genealogy;
    using Region = NeighborhoodRegion;

    explicit FullEvaluationProblem(const GmhGenealogyProblem& inner) : inner_(inner) {}

    double logPosterior(const State& g) const { return inner_.logPosterior(g); }
    Region makeRegion(const State& g, Rng& rng) const { return inner_.makeRegion(g, rng); }
    State proposeInRegion(const Region& r, Rng& rng) const {
        return inner_.proposeInRegion(r, rng);
    }
    double logProposalDensity(const Region& r, const State& g) const {
        return inner_.logProposalDensity(r, g);
    }

  private:
    const GmhGenealogyProblem& inner_;
};

struct ChainRecord {
    std::vector<Genealogy> states;
    std::vector<std::uint64_t> logPosteriors;
    GmhStats stats;
};

template <class Problem>
ChainRecord runChain(const Problem& problem, const Genealogy& init, ThreadPool* pool) {
    GmhOptions opts;
    opts.numProposals = 12;
    opts.samplesPerIteration = 12;
    opts.seed = 404;
    GmhSampler<Problem> sampler(problem, opts, pool);
    ChainRecord rec;
    sampler.run(init, 5, 25, [&](const Genealogy& g, double logPost) {
        rec.states.push_back(g);
        rec.logPosteriors.push_back(std::bit_cast<std::uint64_t>(logPost));
    });
    rec.stats = sampler.stats();
    return rec;
}

TEST(GmhRegionChainTest, RegionChainEqualsFullEvaluationChain) {
    static_assert(RegionEvaluated<GmhGenealogyProblem>);
    static_assert(!RegionEvaluated<FullEvaluationProblem>);
    const Alignment data = simulatedData(12, 300, 47);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Mt19937 rng(48);
    Genealogy init = simulateCoalescent(12, 0.5, rng);
    init.setTipNames(data.names());
    const GmhGenealogyProblem region(lik, 0.5);
    const FullEvaluationProblem full(region);

    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        const ChainRecord a = runChain(region, init, &pool);
        const ChainRecord b = runChain(full, init, &pool);
        ASSERT_EQ(a.states.size(), 25u * 12u);
        EXPECT_TRUE(a.states == b.states);
        EXPECT_TRUE(a.logPosteriors == b.logPosteriors);
        EXPECT_EQ(a.stats.iterations, b.stats.iterations);
        EXPECT_EQ(a.stats.samplesDrawn, b.stats.samplesDrawn);
        EXPECT_EQ(a.stats.generatorResampled, b.stats.generatorResampled);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stats.meanGeneratorWeight),
                  std::bit_cast<std::uint64_t>(b.stats.meanGeneratorWeight));
        // The chain moved, so the comparison covered proposals, not just
        // the start state.
        EXPECT_GT(a.stats.moveRate(), 0.0);
    }
}

TEST(GmhRegionChainTest, RestoreReevaluatesTheArena) {
    // Snapshot a chain, run on, then restore the snapshot into the same
    // sampler: its arena then holds a later generator, which the restored
    // chain must not score against.
    const Alignment data = simulatedData(10, 300, 57);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Mt19937 rng(58);
    Genealogy init = simulateCoalescent(10, 0.5, rng);
    init.setTipNames(data.names());
    const GmhGenealogyProblem problem(lik, 0.5);
    ThreadPool pool(2);
    GmhOptions opts;
    opts.numProposals = 8;
    opts.samplesPerIteration = 8;
    opts.seed = 505;
    GmhSampler<GmhGenealogyProblem> sampler(problem, opts, &pool);
    sampler.start(init);
    auto discard = [](const Genealogy&) {};
    for (int it = 0; it < 4; ++it) sampler.tick(&discard);

    const Genealogy state = sampler.current();
    const double logPost = sampler.currentLogPosterior();
    const std::uint64_t iteration = sampler.iteration();
    const GmhStats stats = sampler.stats();
    const Mt19937 hostRng = sampler.hostRng();
    auto runOn = [&] {
        std::vector<std::uint64_t> bits;
        auto sink = [&](const Genealogy& g, double lp) {
            EXPECT_EQ(lp, lik.logLikelihood(g) + logCoalescentPrior(g, 0.5));
            bits.push_back(std::bit_cast<std::uint64_t>(lp));
        };
        for (int it = 0; it < 6; ++it) sampler.tick(&sink);
        return bits;
    };
    const std::vector<std::uint64_t> first = runOn();
    EXPECT_GT(sampler.stats().moveRate(), 0.0);
    sampler.restore(state, logPost, iteration, stats);
    sampler.hostRng() = hostRng;
    EXPECT_TRUE(runOn() == first);
}

}  // namespace
}  // namespace mpcgs
