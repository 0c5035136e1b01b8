// The SMC slot arena (lik/slot_arena.h) that executes the particle
// filter's likelihood work. Tests pin (1) agreement of a forest built from
// raw tipInit/combine operations with the scalar pruning reference, also
// at pattern counts that end in a partial tile, and the matrix sharing of
// its cherries, (2) bitwise thread-count invariance
// of full SMC passes (logZ, sampled genealogy, resampling trajectory)
// across resampling pressure, rate heterogeneity and multi-locus pooling,
// and (3) the lik.* counters of a filter pass.
#include "lik/slot_arena.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "lik/rate_model.h"
#include "obs/metrics.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/smc_sampler.h"
#include "reference_likelihood.h"

namespace mpcgs {
namespace {

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

/// A forest built through an arena: every slot's root log-likelihood, the
/// genealogy the merges describe, and how many merges joined two tips.
struct BuiltForest {
    std::vector<double> logL;
    Genealogy tree;
    std::size_t cherries = 0;
};

/// Drive `arena` through a random forest-building schedule (tips, then
/// pairwise combines; each new node sits a random height above its older
/// child). Slot = node id. Merging two tips passes bit-equal branch
/// lengths, and no other merge does: internal nodes sit at distinct
/// random heights above time 0.
BuiltForest buildForest(SlotArena& arena, int tips, Mt19937& rng) {
    arena.resizeSlots(static_cast<std::size_t>(2 * tips - 1));
    std::vector<SlotArena::Slot> live;
    BuiltForest out{std::vector<double>(static_cast<std::size_t>(2 * tips - 1)),
                    Genealogy(tips)};
    for (int t = 0; t < tips; ++t) {
        arena.tipInit(t, t, &out.logL[t]);
        live.push_back(t);
    }
    SlotArena::Slot next = tips;
    while (live.size() > 1) {
        const std::size_t a = static_cast<std::size_t>(rng.below(live.size()));
        std::size_t b = static_cast<std::size_t>(rng.below(live.size() - 1));
        if (b >= a) ++b;
        const double ta = out.tree.node(live[a]).time;
        const double tb = out.tree.node(live[b]).time;
        const double t = std::max(ta, tb) + 0.01 + 0.3 * rng.uniform01();
        out.tree.node(next).time = t;
        out.tree.link(next, live[a]);
        out.tree.link(next, live[b]);
        arena.combine(next, live[a], t - ta, live[b], t - tb, &out.logL[next]);
        out.cherries += live[a] < static_cast<SlotArena::Slot>(tips) &&
                        live[b] < static_cast<SlotArena::Slot>(tips);
        live[a] = next;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
        ++next;
    }
    out.tree.setRoot(next - 1);
    return out;
}

/// Seven sequences whose columns spell 0..P-1 in base 4 (tip s holds
/// digit s), so the alignment compresses to exactly P patterns.
Alignment base4Columns(std::size_t P) {
    std::vector<Sequence> seqs;
    for (int s = 0; s < 7; ++s) {
        std::string chars;
        for (std::size_t j = 0; j < P; ++j) chars += "ACGT"[(j >> (2 * s)) & 3];
        seqs.push_back(Sequence::fromString("s" + std::to_string(s), chars));
    }
    return Alignment(std::move(seqs));
}

/// Build a random 7-tip forest over `aln` through raw ops, with one rate
/// and with four gamma categories: the completed tree's root factor must
/// match the scalar reference, and each cherry must share its matrices.
void expectRawOpForestMatchesReference(const Alignment& aln) {
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        SCOPED_TRACE(gamma ? "gamma" : "one rate");
        const DataLikelihood lik = gamma ? DataLikelihood(aln, model,
                                                          RateCategories::discreteGamma(
                                                              0.6, 4))
                                         : DataLikelihood(aln, model);
        const std::uint64_t C = lik.rateCategories().count();

        Mt19937 scheduleRng(99);
        SlotArena arena(lik);
        obs::reset();
        obs::arm();
        BuiltForest forest = buildForest(arena, 7, scheduleRng);
        const obs::MetricsSnapshot snap = obs::snapshot();
        obs::disarm();
        obs::reset();
        ASSERT_EQ(forest.logL.size(), 13u);
        EXPECT_EQ(arena.slotCount(), 13u);

        // The completed tree's root factor is its data likelihood.
        forest.tree.setTipNames(aln.names());
        forest.tree.validate();
        EXPECT_NEAR(forest.logL.back(), referenceLogLikelihood(lik, forest.tree), 1e-9);

        // Each combine requests 2 matrices per category; a cherry's two
        // bit-equal branch lengths share one. The first merge of an
        // all-tips forest is always a cherry.
        EXPECT_GT(forest.cherries, 0u);
        EXPECT_EQ(snap.counter(obs::Counter::LikCombineOps), 6u);
        EXPECT_EQ(snap.counter(obs::Counter::LikMatricesRequested), 6u * 2u * C);
        EXPECT_EQ(snap.counter(obs::Counter::LikMatricesComputed),
                  6u * 2u * C - C * forest.cherries);
    }
}

TEST(SlotArenaTest, RawOpForestMatchesTheReferenceAndSharesCherryMatrices) {
    expectRawOpForestMatchesReference(simulateData(7, 1.0, 240, 11));
    // Exact pattern counts around the 8-pattern tile: a lone partial tile
    // (1, 7), a full tile plus one pattern (9) and the smc_theta shape (255).
    for (const std::size_t P : {1u, 7u, 9u, 255u}) {
        SCOPED_TRACE("patterns " + std::to_string(P));
        const Alignment aln = base4Columns(P);
        ASSERT_EQ(SitePatterns(aln).patternCount(), P);
        expectRawOpForestMatchesReference(aln);
    }
}

/// Full-pass thread invariance on a config with real resampling pressure
/// (essThreshold 1.0 = resample every step, so every generation's
/// offspring read slots their ancestors wrote), with and without rate
/// heterogeneity.
TEST(SlotArenaTest, SmcPassBitwiseInvariantAcrossThreads) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        SCOPED_TRACE(gamma ? "gamma" : "one rate");
        const DataLikelihood lik =
            gamma ? DataLikelihood(aln, model, RateCategories::discreteGamma(0.7, 4))
                  : DataLikelihood(aln, model);
        for (const auto scheme :
             {ResamplingScheme::Systematic, ResamplingScheme::Multinomial}) {
            SmcOptions opts;
            opts.particles = 96;
            opts.scheme = scheme;
            opts.essThreshold = 1.0;
            const SmcPassResult ref = runSmcPass(lik, 1.0, opts, 4711);

            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                ThreadPool pool(threads);
                const SmcPassResult res = runSmcPass(lik, 1.0, opts, 4711, &pool);
                EXPECT_EQ(std::memcmp(&res.logZ, &ref.logZ, sizeof(double)), 0)
                    << threads << " threads";
                EXPECT_EQ(std::memcmp(&res.sampledLogPosterior, &ref.sampledLogPosterior,
                                      sizeof(double)),
                          0)
                    << threads << " threads";
                EXPECT_EQ(res.sampled, ref.sampled) << threads << " threads";
                EXPECT_EQ(res.resamples, ref.resamples);
                EXPECT_EQ(std::memcmp(&res.minEssFraction, &ref.minEssFraction,
                                      sizeof(double)),
                          0);
            }
        }
    }
}

TEST(SlotArenaTest, PooledMultiLocusBitwiseInvariantAcrossThreads) {
    const Alignment a1 = simulateData(6, 1.0, 150, 3);
    const Alignment a2 = simulateData(6, 1.0, 120, 4);
    const F81Model m1(a1.baseFrequencies());
    const F81Model m2(a2.baseFrequencies());
    const DataLikelihood l1(a1, m1);
    const DataLikelihood l2(a2, m2);

    SmcOptions opts;
    opts.particles = 48;
    const PooledSmcLikelihood pooled({{&l1, 1.0}, {&l2, 1.6}}, opts, 21);
    ThreadPool pool(4);
    for (const double theta : {0.4, 1.0, 2.5}) {
        const double serial = pooled.logL(theta);
        const double wide = pooled.logL(theta, &pool);
        EXPECT_EQ(std::memcmp(&serial, &wide, sizeof(double)), 0) << "theta " << theta;
    }
}

TEST(SlotArenaTest, FilterPassCountsItsCombinesAndMatrices) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        SCOPED_TRACE(gamma ? "gamma" : "one rate");
        const DataLikelihood lik =
            gamma ? DataLikelihood(aln, model, RateCategories::discreteGamma(0.6, 4))
                  : DataLikelihood(aln, model);
        const std::uint64_t C = lik.rateCategories().count();
        SmcOptions opts;
        opts.particles = 128;
        ThreadPool pool(4);

        obs::reset();
        obs::arm();
        SlotArena arena(lik);
        SmcFilter filter(arena, 1.0, opts, 47, &pool);
        while (!filter.done()) filter.step();
        filter.finish();
        const obs::MetricsSnapshot stepped = obs::snapshot();

        // runSmcPass builds its own arena and does the same work, launch
        // for launch.
        obs::reset();
        runSmcPass(lik, 1.0, opts, 47, &pool);
        const obs::MetricsSnapshot direct = obs::snapshot();
        obs::disarm();
        obs::reset();
        for (const auto c :
             {obs::Counter::LikCombineOps, obs::Counter::LikMatricesRequested,
              obs::Counter::LikMatricesComputed, obs::Counter::PoolLaunches})
            EXPECT_EQ(direct.counter(c), stepped.counter(c)) << obs::counterName(c);

        // One combine per particle per event, each requesting 2C matrices;
        // cherries compute C of them, every other combine 2C.
        EXPECT_EQ(stepped.counter(obs::Counter::LikCombineOps), 7u * 128u);
        const std::uint64_t requested = stepped.counter(obs::Counter::LikMatricesRequested);
        const std::uint64_t computed = stepped.counter(obs::Counter::LikMatricesComputed);
        EXPECT_EQ(requested, 7u * 128u * 2u * C);
        EXPECT_LT(computed, requested);
        EXPECT_GE(computed, requested / 2);
        EXPECT_EQ((requested - computed) % C, 0u);
        // The executor runs every item when it is called: nothing flushes.
        EXPECT_EQ(stepped.counter(obs::Counter::LikFlushes), 0u);
    }
}

}  // namespace
}  // namespace mpcgs
