// Unified sampler runtime: sink pipeline, chain scheduling determinism,
// convergence-driven stopping, and end-to-end thread-count invariance of
// the ensemble strategies through estimateTheta.
#include "core/samplers.h"

#include <cmath>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "mcmc/mh.h"
#include "mcmc/schedule.h"
#include "par/thread_pool.h"
#include "rng/splitmix.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

// The free-running form of the multi-chain §3 baseline (Fig 6): P
// independent Metropolis-Hastings chains, each paying its own burn-in of B
// transitions, whose samples stream through the sink as each chain
// produces them. The sink is invoked as sink(state, chain, indexInChain);
// calls for one chain arrive in index order from that chain's worker,
// calls for different chains may be concurrent. Each chain draws from its
// own SplitMix64-derived Mt19937 stream, so the aggregate is bitwise
// invariant to the thread count.

struct MultiChainOptions {
    std::size_t chains = 4;            ///< P
    std::size_t burnInPerChain = 100;  ///< B (every chain pays this)
    std::size_t totalSamples = 1000;   ///< N, split across chains
    std::uint64_t seed = 1;
};

/// Number of samples each chain contributes: ceil(N / P).
std::size_t multiChainSamplesPerChain(const MultiChainOptions& opts) {
    return (opts.totalSamples + opts.chains - 1) / opts.chains;
}

/// Run the ensemble, the chains concurrently on `pool` when provided.
template <class Problem, class Sink>
void runMultiChain(const Problem& problem, typename Problem::State init,
                   const MultiChainOptions& opts, Sink&& sink, ThreadPool* pool = nullptr) {
    using State = typename Problem::State;
    const std::size_t perChain = multiChainSamplesPerChain(opts);
    forEachIndex(
        pool, opts.chains,
        [&](std::size_t c) {
            MhChain<Problem> chain(problem, init,
                                   Mt19937::fromSplitMix(splitMix64At(opts.seed, c + 1)));
            std::size_t index = 0;
            chain.run(opts.burnInPerChain, perChain,
                      [&](const State& s) { sink(s, c, index++); });
        },
        /*grain=*/1);
}

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

MpcgsOptions quickOptions(Strategy strategy) {
    MpcgsOptions o;
    o.theta0 = 0.3;
    o.emIterations = 2;
    o.samplesPerIteration = 800;
    o.strategy = strategy;
    o.gmhProposals = 8;
    o.gmhSamplesPerSet = 8;
    o.chains = 4;
    o.seed = 77;
    return o;
}

void expectIdenticalResults(const MpcgsResult& a, const MpcgsResult& b) {
    EXPECT_DOUBLE_EQ(a.theta, b.theta);
    ASSERT_EQ(a.finalSummaries.size(), b.finalSummaries.size());
    for (std::size_t i = 0; i < a.finalSummaries.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.finalSummaries[i].weightedSum, b.finalSummaries[i].weightedSum);
        EXPECT_EQ(a.finalSummaries[i].events, b.finalSummaries[i].events);
    }
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history[i].thetaAfter, b.history[i].thetaAfter);
        EXPECT_EQ(a.history[i].samples, b.history[i].samples);
        EXPECT_DOUBLE_EQ(a.history[i].moveRate, b.history[i].moveRate);
    }
}

TEST(SamplerRuntimeTest, MultiChainIsThreadCountInvariant) {
    const Alignment aln = simulateData(8, 1.0, 250, 31);
    const MpcgsOptions o = quickOptions(Strategy::MultiChain);
    const MpcgsResult serial = estimateTheta(aln, o, nullptr);
    ThreadPool pool4(4);
    const MpcgsResult par4 = estimateTheta(aln, o, &pool4);
    ThreadPool pool8(8);
    const MpcgsResult par8 = estimateTheta(aln, o, &pool8);
    expectIdenticalResults(serial, par4);
    expectIdenticalResults(serial, par8);
}

TEST(SamplerRuntimeTest, HeatedMhIsThreadCountInvariant) {
    const Alignment aln = simulateData(8, 1.0, 250, 32);
    MpcgsOptions o = quickOptions(Strategy::HeatedMh);
    o.samplesPerIteration = 600;
    const MpcgsResult serial = estimateTheta(aln, o, nullptr);
    ThreadPool pool4(4);
    const MpcgsResult par4 = estimateTheta(aln, o, &pool4);
    ThreadPool pool8(8);
    const MpcgsResult par8 = estimateTheta(aln, o, &pool8);
    expectIdenticalResults(serial, par4);
    expectIdenticalResults(serial, par8);
}

TEST(SamplerRuntimeTest, SerialStrategiesStillDeterministic) {
    const Alignment aln = simulateData(7, 1.0, 200, 33);
    for (const Strategy s : {Strategy::Gmh, Strategy::SerialMh}) {
        const MpcgsOptions o = quickOptions(s);
        ThreadPool pool(6);
        expectIdenticalResults(estimateTheta(aln, o, nullptr), estimateTheta(aln, o, &pool));
    }
}

TEST(SamplerRuntimeTest, RunMultiChainStreamsTaggedSamplesDeterministically) {
    // The streamed (state, chain, index) calls carry per-chain order, and
    // the aggregate is identical for any pool width.
    struct Gaussian {
        using State = double;
        double logPosterior(const State& x) const { return -0.5 * x * x; }
        struct Proposal {
            State state;
            double logForward;
            double logReverse;
        };
        Proposal propose(const State& cur, Rng& rng) const {
            return Proposal{cur + rng.normal(0.0, 0.8), 0.0, 0.0};
        }
    };
    const Gaussian problem;
    MultiChainOptions opts;
    opts.chains = 4;
    opts.burnInPerChain = 50;
    opts.totalSamples = 1000;
    opts.seed = 5;
    const std::size_t perChain = multiChainSamplesPerChain(opts);

    const auto collect = [&](ThreadPool* pool) {
        std::vector<std::vector<double>> perChainOut(opts.chains);
        for (auto& v : perChainOut) v.resize(perChain);
        std::vector<std::vector<std::size_t>> indices(opts.chains);
        runMultiChain(
            problem, 0.0, opts,
            [&](const double& s, std::size_t chain, std::size_t index) {
                perChainOut[chain][index] = s;
                indices[chain].push_back(index);
            },
            pool);
        // Per-chain calls arrived in index order.
        for (const auto& idx : indices) {
            EXPECT_EQ(idx.size(), perChain);
            for (std::size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], i);
        }
        return perChainOut;
    };

    const auto serial = collect(nullptr);
    ThreadPool pool(4);
    const auto parallel = collect(&pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t c = 0; c < serial.size(); ++c)
        for (std::size_t i = 0; i < serial[c].size(); ++i)
            EXPECT_DOUBLE_EQ(serial[c][i], parallel[c][i]);

    // Distinct chains draw from distinct streams.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(SamplerRuntimeTest, SummarySinkOrdersChainMajor) {
    SummarySink sink;
    sink.beginRun(3);
    Genealogy g(2);  // tag-only test; the sink reduces to intervals lazily
    g.node(2).child = {0, 1};
    g.node(2).time = 1.0;
    g.node(0).parent = 2;
    g.node(1).parent = 2;
    g.setRoot(2);
    // Interleaved arrival: chain 2 first, then 0, then 1.
    for (const std::uint32_t chain : {2u, 0u, 1u, 0u, 2u})
        sink.consume(g, SampleTag{chain, 0, 0.0});
    EXPECT_EQ(sink.total(), 5u);
    const auto out = sink.chainMajor();
    ASSERT_EQ(out.size(), 5u);  // chain 0: 2 entries, chain 1: 1, chain 2: 2
    for (const auto& s : out) EXPECT_EQ(s.events, 1);
}

TEST(SamplerRuntimeTest, ConvergenceMonitorRhatAndEss) {
    ConvergenceMonitor m;
    m.beginRun(2);
    Genealogy g(2);
    Mt19937 rng(9);
    // Two chains sampling the same distribution: R-hat ~ 1.
    for (std::uint64_t i = 0; i < 500; ++i) {
        m.consume(g, SampleTag{0, i, rng.normal(0.0, 1.0)});
        m.consume(g, SampleTag{1, i, rng.normal(0.0, 1.0)});
    }
    EXPECT_LT(m.rhat(), 1.05);
    EXPECT_GT(m.pooledEss(), 100.0);
    EXPECT_EQ(m.minChainLength(), 500u);
    EXPECT_EQ(m.totalSamples(), 1000u);

    // A far-away third chain blows R-hat up.
    ConvergenceMonitor bad;
    bad.beginRun(2);
    for (std::uint64_t i = 0; i < 500; ++i) {
        bad.consume(g, SampleTag{0, i, rng.normal(0.0, 1.0)});
        bad.consume(g, SampleTag{1, i, rng.normal(50.0, 1.0)});
    }
    EXPECT_GT(bad.rhat(), 5.0);
}

TEST(SamplerRuntimeTest, StoppingRuleRequiresBothCriteria) {
    ConvergenceMonitor m;
    m.beginRun(1);
    Genealogy g(2);
    Mt19937 rng(10);
    for (std::uint64_t i = 0; i < 400; ++i) m.consume(g, SampleTag{0, i, rng.normal(0.0, 1.0)});

    StoppingRule off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.satisfied(m));

    StoppingRule loose;
    loose.rhatBelow = 1.5;
    loose.essAtLeast = 10.0;
    EXPECT_TRUE(loose.enabled());
    EXPECT_TRUE(loose.satisfied(m));

    StoppingRule impossibleEss = loose;
    impossibleEss.essAtLeast = 1e9;
    EXPECT_FALSE(impossibleEss.satisfied(m));

    StoppingRule tooEarly = loose;
    tooEarly.minSamplesPerChain = 1000;
    EXPECT_FALSE(tooEarly.satisfied(m));
}

TEST(SamplerRuntimeTest, ConvergenceStoppingEndsEstepEarly) {
    const Alignment aln = simulateData(8, 1.0, 200, 34);
    MpcgsOptions o = quickOptions(Strategy::MultiChain);
    o.emIterations = 1;
    o.samplesPerIteration = 4000;
    o.stopRhat = 2.0;   // generous thresholds: fire at the first check
    o.stopEss = 20.0;
    ThreadPool pool(4);
    const MpcgsResult res = estimateTheta(aln, o, &pool);
    ASSERT_EQ(res.history.size(), 1u);
    EXPECT_TRUE(res.history[0].stoppedEarly);
    EXPECT_LT(res.history[0].samples, o.samplesPerIteration);
    EXPECT_GT(res.history[0].rhat, 0.0);
    EXPECT_GT(res.history[0].ess, 0.0);
    EXPECT_GT(res.theta, 0.0);

    // Unreachable thresholds: the run uses the full cap.
    MpcgsOptions capped = o;
    capped.stopRhat = 1e-9;
    const MpcgsResult full = estimateTheta(aln, capped, &pool);
    EXPECT_FALSE(full.history[0].stoppedEarly);
    EXPECT_GE(full.history[0].samples, capped.samplesPerIteration);
}

TEST(SamplerRuntimeTest, StoppingReachableForSingleChainStrategies) {
    // One chain falls back to split-R-hat, so the rule still fires.
    const Alignment aln = simulateData(6, 1.0, 150, 35);
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    o.emIterations = 1;
    o.samplesPerIteration = 4000;
    o.stopRhat = 3.0;
    o.stopEss = 5.0;
    const MpcgsResult res = estimateTheta(aln, o);
    EXPECT_TRUE(res.history[0].stoppedEarly);
    EXPECT_LT(res.history[0].samples, o.samplesPerIteration);
}

TEST(SamplerRuntimeTest, ChainSchedulerRoundsAreDeterministic) {
    // Chains mutate only their own slot; serial and pooled execution agree.
    const auto run = [](ThreadPool* pool) {
        ChainScheduler sched(pool, 8);
        std::vector<std::uint64_t> state(8);
        for (std::size_t c = 0; c < 8; ++c) state[c] = splitMix64At(123, c);
        std::uint64_t barriers = 0;
        for (int round = 0; round < 100; ++round)
            sched.round([&](std::size_t c) { state[c] = splitMix64Mix(state[c] + c); },
                        [&] { ++barriers; });
        EXPECT_EQ(barriers, 100u);
        return state;
    };
    ThreadPool pool(4);
    EXPECT_EQ(run(nullptr), run(&pool));
}

TEST(SamplerRuntimeTest, MakeSamplerBuildsEveryStrategy) {
    const Alignment aln = simulateData(6, 1.0, 120, 36);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    const Genealogy init = initialGenealogy(aln, 1.0);

    for (const Strategy s :
         {Strategy::Gmh, Strategy::SerialMh, Strategy::MultiChain, Strategy::HeatedMh}) {
        SamplerSpec spec;
        spec.strategy = s;
        spec.seed = 3;
        spec.chains = 3;
        spec.gmhProposals = 4;
        spec.gmhSamplesPerSet = 4;
        auto sampler = makeSampler(spec, lik, 1.0, init, nullptr);
        SummarySink sink;
        ConvergenceMonitor monitor;
        SamplerRun::Config cfg;
        cfg.burnInTicks = 5;
        cfg.sampleTicks = 10;
        SamplerRun run(*sampler, cfg);
        const SamplerRunReport report = run.execute(sink, monitor);
        EXPECT_EQ(report.ticks, 10u);
        EXPECT_EQ(report.samples, 10u * sampler->samplesPerTick());
        EXPECT_EQ(sink.total(), report.samples);
        EXPECT_GT(sampler->stats().steps, 0u);
        EXPECT_NO_THROW(sampler->continuation().validate());
    }
}

}  // namespace
}  // namespace mpcgs
