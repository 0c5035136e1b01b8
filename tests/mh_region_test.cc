// MH region scoring: every MH-family chain scores a proposal over an arena
// holding its current state (the problems' region hook, reached through
// LikelihoodEngine::evaluateRegion) and moves the arena only on an
// acceptance. The score must equal a full evaluation bitwise, the arena
// must stay equal to a fresh evaluation of the chain's state along any
// accept/reject sequence, and a chain run through the hook must equal the
// chain that evaluates every proposal in full, at any thread count.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/genealogy_problem.h"
#include "core/structured_problem.h"
#include "lik/felsenstein.h"
#include "lik/partials_buffer.h"
#include "mcmc/heated.h"
#include "mcmc/mh.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "rng/splitmix.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

struct ChainFixture {
    Alignment data;
    Genealogy init;
};

ChainFixture makeSetup(int n, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    Alignment data = simulateSequences(truth, *model, {length, 1.0}, rng);
    Genealogy init = simulateCoalescent(n, 1.0, rng);
    init.setTipNames(data.names());
    return ChainFixture{std::move(data), std::move(init)};
}

MigrationModel twoDemes() {
    MigrationModel m(2, 1.0, 1.0);
    m.theta = {1.0, 1.6};
    m.setRate(0, 1, 0.7);
    m.setRate(1, 0, 0.5);
    return m;
}

struct StructuredFixture {
    Alignment data;
    StructuredGenealogy init;
};

StructuredFixture makeStructuredSetup(int n, std::size_t length, unsigned seed) {
    std::vector<int> demes(static_cast<std::size_t>(n), 0);
    for (int i = n / 2; i < n; ++i) demes[static_cast<std::size_t>(i)] = 1;
    Mt19937 rng(seed);
    const StructuredGenealogy truth = simulateStructuredCoalescent(demes, twoDemes(), rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    Alignment data = simulateSequences(truth.tree(), *model, {length, 1.0}, rng);
    StructuredGenealogy init = simulateStructuredCoalescent(demes, twoDemes(), rng);
    return StructuredFixture{std::move(data), std::move(init)};
}

/// The arena's strips equal those of a fresh full evaluation of `g`
/// bitwise (the partials of every internal node, category and pattern).
void expectArenaHolds(const DataLikelihood& lik, const PartialsBuffer& arena, const Genealogy& g) {
    PartialsBuffer fresh;
    lik.engine().evaluate(g, fresh);
    ASSERT_EQ(arena.nodeCount(), fresh.nodeCount());
    const std::size_t bytes = lik.patternCount() * 4 * sizeof(double);
    for (std::size_t c = 0; c < fresh.categories; ++c)
        for (std::size_t id = fresh.tips; id < fresh.nodeCount(); ++id)
            EXPECT_EQ(std::memcmp(arena.partials(c, id), fresh.partials(c, id), bytes), 0)
                << "category " << c << " node " << id;
}

/// Drive a problem's hook by hand along a chain of proposals: each
/// proposal scores over the arena exactly as its full posterior does, and
/// every third one is taken, moving the arena, which must then hold the
/// new state.
template <class Problem>
void expectHookMatchesPosterior(const DataLikelihood& lik, const Problem& problem,
                                typename Problem::State s, Rng& rng, ThreadPool* pool) {
    static_assert(RegionEvaluated<Problem>);
    PartialsBuffer arena;
    problem.evaluateGenerator(s, arena, pool);
    for (int k = 0; k < 60; ++k) {
        auto prop = problem.propose(s, rng);
        EXPECT_EQ(problem.logPosterior(prop.region, arena, prop.state, pool),
                  problem.logPosterior(prop.state))
            << "proposal " << k;
        if (k % 3 == 2) {
            problem.moveGenerator(prop.region, prop.state, arena, pool);
            s = std::move(prop.state);
            expectArenaHolds(lik, arena, treeOf(s));
        }
    }
}

TEST(MhRegionTest, RecoalescenceRegionsScoreAsFullEvaluations) {
    // 2000 bp: several pattern blocks, so the pool splits every region.
    const ChainFixture s = makeSetup(14, 2000, 61);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const DataLikelihood gamma(s.data, model, RateCategories::discreteGamma(0.5, 3));
    Mt19937 rng(62);
    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        expectHookMatchesPosterior(lik, MhGenealogyProblem(lik, 0.8), s.init, rng, p);
        expectHookMatchesPosterior(gamma, MhGenealogyProblem(gamma, 0.8), s.init, rng, p);
    }
}

TEST(MhRegionTest, StructuredMovesScoreAsFullEvaluations) {
    // Half the proposals refresh a migration path: labels only, the empty
    // region, scored as one root fold (or -inf before any fold when the
    // refreshed path lands in the wrong deme).
    const StructuredFixture s = makeStructuredSetup(10, 1200, 63);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const StructuredMhProblem problem(lik, twoDemes(), /*pathRefreshProb=*/0.5);
    Mt19937 rng(64);
    int empty = 0;
    for (int k = 0; k < 40; ++k)
        empty += problem.propose(s.init, rng).region == RecoalesceRegion{kNoNode, kNoNode};
    EXPECT_GT(empty, 0);
    EXPECT_LT(empty, 40);
    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool})
        expectHookMatchesPosterior(lik, problem, s.init, rng, p);
}

TEST(MhRegionTest, ChainStaysCoherentAlongTheChain) {
    // After arbitrary accept/reject sequences the carried log-posterior
    // equals a fresh full evaluation of the current state.
    const ChainFixture s = makeSetup(10, 150, 51);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const MhGenealogyProblem problem(lik, 1.0);
    MhChain<MhGenealogyProblem> chain(problem, s.init, 7);
    for (int block = 0; block < 20; ++block) {
        for (int i = 0; i < 25; ++i) chain.step();
        EXPECT_EQ(chain.currentLogPosterior(), problem.logPosterior(chain.current()))
            << "after " << (block + 1) * 25 << " steps";
    }
    EXPECT_GT(chain.acceptanceRate(), 0.0);
}

TEST(MhRegionTest, CoherentOnLargerTrees) {
    const ChainFixture s = makeSetup(24, 100, 52);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const MhGenealogyProblem problem(lik, 0.7);
    MhChain<MhGenealogyProblem> chain(problem, s.init, 8);
    for (int i = 0; i < 300; ++i) chain.step();
    EXPECT_EQ(chain.currentLogPosterior(), problem.logPosterior(chain.current()));
    EXPECT_NO_THROW(chain.current().validate());
}

/// A problem without its region hook: every proposal pays a full
/// evaluation.
template <class Inner>
class FullEvaluationProblem {
  public:
    using State = typename Inner::State;
    using Proposal = typename Inner::Proposal;

    explicit FullEvaluationProblem(const Inner& inner) : inner_(inner) {}

    double logPosterior(const State& s) const { return inner_.logPosterior(s); }
    Proposal propose(const State& s, Rng& rng) const { return inner_.propose(s, rng); }

  private:
    const Inner& inner_;
};

template <class State>
struct ChainRecord {
    std::vector<State> states;
    std::vector<std::uint64_t> logPosteriors;
    std::size_t steps = 0;
    std::size_t accepted = 0;
    std::size_t swapsAccepted = 0;
};

template <class Problem>
ChainRecord<typename Problem::State> runMh(const Problem& problem,
                                           const typename Problem::State& init,
                                           ThreadPool* pool) {
    MhChain<Problem> chain(problem, init, Mt19937::fromSplitMix(splitMix64At(404, 1)), pool);
    ChainRecord<typename Problem::State> rec;
    chain.run(20, 150, [&](const typename Problem::State& s) {
        rec.states.push_back(s);
        rec.logPosteriors.push_back(std::bit_cast<std::uint64_t>(chain.currentLogPosterior()));
    });
    rec.steps = chain.steps();
    rec.accepted = chain.acceptedCount();
    return rec;
}

template <class Problem>
ChainRecord<typename Problem::State> runHeated(const Problem& problem,
                                               const typename Problem::State& init,
                                               ThreadPool* pool) {
    HeatedOptions opts;
    opts.temperatures = {1.0, 1.5, 2.5, 4.0};
    opts.swapInterval = 3;
    opts.seed = 505;
    HeatedChains<Problem> chains(problem, init, opts, pool);
    ChainRecord<typename Problem::State> rec;
    chains.run(10, 80, [&](const typename Problem::State& s) {
        rec.states.push_back(s);
        rec.logPosteriors.push_back(std::bit_cast<std::uint64_t>(chains.coldLogPosterior()));
    });
    const HeatedStats stats = chains.stats();
    rec.steps = stats.steps;
    rec.accepted = stats.accepted;
    rec.swapsAccepted = stats.swapsAccepted;
    return rec;
}

template <class State>
void expectSameChain(const ChainRecord<State>& a, const ChainRecord<State>& b) {
    ASSERT_EQ(a.states.size(), b.states.size());
    EXPECT_TRUE(a.states == b.states);
    EXPECT_TRUE(a.logPosteriors == b.logPosteriors);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.swapsAccepted, b.swapsAccepted);
    // The chain moved, so the comparison covered accepted proposals too.
    EXPECT_GT(a.accepted, 0u);
}

TEST(MhRegionChainTest, RegionChainsEqualFullEvaluationChains) {
    static_assert(!RegionEvaluated<FullEvaluationProblem<MhGenealogyProblem>>);
    const ChainFixture s = makeSetup(12, 2000, 71);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const MhGenealogyProblem region(lik, 0.6);
    const FullEvaluationProblem full(region);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        expectSameChain(runMh(region, s.init, &pool), runMh(full, s.init, &pool));
        const auto heated = runHeated(region, s.init, &pool);
        expectSameChain(heated, runHeated(full, s.init, &pool));
        EXPECT_GT(heated.swapsAccepted, 0u);
    }
}

TEST(MhRegionChainTest, StructuredRegionChainsEqualFullEvaluationChains) {
    const StructuredFixture s = makeStructuredSetup(8, 1200, 73);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const StructuredMhProblem region(lik, twoDemes(), 0.25);
    const FullEvaluationProblem full(region);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        expectSameChain(runMh(region, s.init, &pool), runMh(full, s.init, &pool));
        expectSameChain(runHeated(region, s.init, &pool), runHeated(full, s.init, &pool));
    }
}

TEST(MhRegionChainTest, RestoreReevaluatesTheArena) {
    // Snapshot a chain, run on, then restore the snapshot into the same
    // chain: its arena then holds a later state, which the restored chain
    // must not score against.
    const ChainFixture s = makeSetup(10, 300, 81);
    const F81Model model(s.data.baseFrequencies());
    const DataLikelihood lik(s.data, model);
    const MhGenealogyProblem problem(lik, 0.5);
    ThreadPool pool(2);
    MhChain<MhGenealogyProblem> chain(problem, s.init, Mt19937(82), &pool);
    for (int i = 0; i < 40; ++i) chain.step();

    const Genealogy state = chain.current();
    const double logPost = chain.currentLogPosterior();
    const std::size_t steps = chain.steps();
    const std::size_t accepted = chain.acceptedCount();
    const Mt19937 rng = chain.rng();
    auto runOn = [&] {
        std::vector<std::uint64_t> bits;
        for (int i = 0; i < 80; ++i) {
            chain.step();
            EXPECT_EQ(chain.currentLogPosterior(), problem.logPosterior(chain.current()));
            bits.push_back(std::bit_cast<std::uint64_t>(chain.currentLogPosterior()));
        }
        return bits;
    };
    const std::vector<std::uint64_t> first = runOn();
    EXPECT_GT(chain.acceptedCount(), accepted);
    chain.restore(state, logPost, steps, accepted);
    chain.rng() = rng;
    EXPECT_TRUE(runOn() == first);
}

}  // namespace
}  // namespace mpcgs
