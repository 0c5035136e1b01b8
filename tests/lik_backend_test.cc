// Likelihood backend contract: the arena and batched backends are
// SCHEDULING choices, never numeric ones. Tests pin (1) bitwise agreement
// of both backends with the ForestEvaluator reference on raw operation
// sequences, (2) bitwise backend- and thread-count-invariance of full SMC
// passes (logZ, sampled genealogy, resampling trajectory) across
// resampling pressure, rate heterogeneity and multi-locus pooling,
// (3) PMMH neutrality (a sampler built on either backend walks the
// identical chain), and (4) the batch statistics + option parsing.
#include "lik/lik_backend.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "lik/forest_eval.h"
#include "lik/rate_model.h"
#include "obs/metrics.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/pmmh.h"
#include "smc/smc_sampler.h"
#include "util/error.h"

namespace mpcgs {
namespace {

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

/// Drive `backend` through a random forest-building schedule (tips, then
/// pairwise combines with the schedule's branch lengths) using ONE flush
/// for the tips and one per combine generation, and return every live
/// root's log-likelihood.
std::vector<double> buildForest(LikelihoodBackend& backend, int tips, Mt19937& rng) {
    backend.resizeSlots(static_cast<std::size_t>(2 * tips - 1));
    std::vector<LikelihoodBackend::Slot> live;
    std::vector<double> logL(static_cast<std::size_t>(2 * tips - 1));
    for (int t = 0; t < tips; ++t) {
        backend.tipInit(t, t);
        backend.rootLogLik(t, &logL[t]);
        live.push_back(t);
    }
    backend.flush(nullptr);
    LikelihoodBackend::Slot next = tips;
    while (live.size() > 1) {
        const std::size_t a = static_cast<std::size_t>(rng.below(live.size()));
        std::size_t b = static_cast<std::size_t>(rng.below(live.size() - 1));
        if (b >= a) ++b;
        const double lenA = 0.01 + 0.3 * rng.uniform01();
        const double lenB = 0.01 + 0.3 * rng.uniform01();
        backend.combine(next, live[a], lenA, live[b], lenB);
        backend.rootLogLik(next, &logL[next]);
        backend.flush(nullptr);
        live[a] = next;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
        ++next;
    }
    logL.resize(next);
    return logL;
}

TEST(LikBackendTest, NamesAndParsing) {
    EXPECT_STREQ(likBackendName(LikBackendKind::Arena), "arena");
    EXPECT_STREQ(likBackendName(LikBackendKind::Batched), "batched");
    EXPECT_EQ(parseLikBackend("arena"), LikBackendKind::Arena);
    EXPECT_EQ(parseLikBackend("batched"), LikBackendKind::Batched);
    EXPECT_THROW(parseLikBackend("gpu"), ConfigError);
    EXPECT_THROW(parseLikBackend(""), ConfigError);
}

TEST(LikBackendTest, BothBackendsMatchForestEvaluatorBitwise) {
    const Alignment aln = simulateData(7, 1.0, 240, 11);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        const DataLikelihood lik = gamma ? DataLikelihood(aln, model,
                                                          RateCategories::discreteGamma(
                                                              0.6, 4))
                                         : DataLikelihood(aln, model);
        const ForestEvaluator eval(lik);

        // Reference forest through the evaluator with an identical schedule.
        Mt19937 scheduleRng(99);
        const auto arena = makeLikelihoodBackend(LikBackendKind::Arena, lik);
        const std::vector<double> viaArena = buildForest(*arena, 7, scheduleRng);
        scheduleRng = Mt19937(99);
        const auto batched = makeLikelihoodBackend(LikBackendKind::Batched, lik);
        const std::vector<double> viaBatched = buildForest(*batched, 7, scheduleRng);

        // Evaluator reference: replay the same schedule on SubtreePartials.
        scheduleRng = Mt19937(99);
        std::vector<SubtreePartials> parts(13);
        std::vector<double> ref(13);
        std::vector<std::size_t> live;
        for (int t = 0; t < 7; ++t) {
            parts[t] = eval.tipPartials(t);
            ref[t] = eval.rootLogLikelihood(parts[t]);
            live.push_back(static_cast<std::size_t>(t));
        }
        std::size_t next = 7;
        while (live.size() > 1) {
            const std::size_t a = static_cast<std::size_t>(scheduleRng.below(live.size()));
            std::size_t b = static_cast<std::size_t>(scheduleRng.below(live.size() - 1));
            if (b >= a) ++b;
            const double lenA = 0.01 + 0.3 * scheduleRng.uniform01();
            const double lenB = 0.01 + 0.3 * scheduleRng.uniform01();
            eval.combine(parts[live[a]], lenA, parts[live[b]], lenB, parts[next]);
            ref[next] = eval.rootLogLikelihood(parts[next]);
            live[a] = next;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
            ++next;
        }

        ASSERT_EQ(viaArena.size(), ref.size());
        ASSERT_EQ(viaBatched.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(std::memcmp(&viaArena[i], &ref[i], sizeof(double)), 0)
                << "arena slot " << i << (gamma ? " (gamma)" : "");
            EXPECT_EQ(std::memcmp(&viaBatched[i], &ref[i], sizeof(double)), 0)
                << "batched slot " << i << (gamma ? " (gamma)" : "");
        }
        // The backends' slot arenas hold identical partials too.
        for (std::size_t s = 0; s < 13; ++s) {
            const auto da = arena->slotData(s), db = batched->slotData(s);
            ASSERT_EQ(da.size(), db.size());
            EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)), 0)
                << "slot " << s;
        }
    }
}

/// Full-pass invariance matrix: backend x thread count, on a config with
/// real resampling pressure (essThreshold 1.0 = resample every step, so
/// every generation's offspring read slots their ancestors wrote).
TEST(LikBackendTest, SmcPassBitwiseInvariantAcrossBackendsAndThreads) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    for (const auto scheme :
         {ResamplingScheme::Systematic, ResamplingScheme::Multinomial}) {
        SmcOptions opts;
        opts.particles = 96;
        opts.scheme = scheme;
        opts.essThreshold = 1.0;
        opts.backend = LikBackendKind::Arena;
        const SmcPassResult ref = runSmcPass(lik, 1.0, opts, 4711);
        EXPECT_EQ(ref.backend, "arena");

        for (const auto backend : {LikBackendKind::Arena, LikBackendKind::Batched}) {
            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                SmcOptions o = opts;
                o.backend = backend;
                ThreadPool pool(threads);
                const SmcPassResult res = runSmcPass(lik, 1.0, o, 4711, &pool);
                EXPECT_EQ(std::memcmp(&res.logZ, &ref.logZ, sizeof(double)), 0)
                    << likBackendName(backend) << ", " << threads << " threads";
                EXPECT_EQ(std::memcmp(&res.sampledLogPosterior,
                                      &ref.sampledLogPosterior, sizeof(double)),
                          0)
                    << likBackendName(backend) << ", " << threads << " threads";
                EXPECT_EQ(res.sampled, ref.sampled)
                    << likBackendName(backend) << ", " << threads << " threads";
                EXPECT_EQ(res.resamples, ref.resamples);
                EXPECT_EQ(std::memcmp(&res.minEssFraction, &ref.minEssFraction,
                                      sizeof(double)),
                          0);
            }
        }
    }
}

TEST(LikBackendTest, GammaRatesBackendNeutral) {
    const Alignment aln = simulateData(6, 1.0, 180, 77);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model, RateCategories::discreteGamma(0.7, 4));

    SmcOptions opts;
    opts.particles = 64;
    opts.backend = LikBackendKind::Arena;
    const SmcPassResult a = runSmcPass(lik, 1.0, opts, 9);
    opts.backend = LikBackendKind::Batched;
    const SmcPassResult b = runSmcPass(lik, 1.0, opts, 9);
    EXPECT_EQ(std::memcmp(&a.logZ, &b.logZ, sizeof(double)), 0);
    EXPECT_EQ(a.sampled, b.sampled);
}

TEST(LikBackendTest, PooledMultiLocusBackendNeutral) {
    const Alignment a1 = simulateData(6, 1.0, 150, 3);
    const Alignment a2 = simulateData(6, 1.0, 120, 4);
    const F81Model m1(a1.baseFrequencies());
    const F81Model m2(a2.baseFrequencies());
    const DataLikelihood l1(a1, m1);
    const DataLikelihood l2(a2, m2);

    SmcOptions opts;
    opts.particles = 48;
    opts.backend = LikBackendKind::Arena;
    const PooledSmcLikelihood arenaPool({{&l1, 1.0}, {&l2, 1.6}}, opts, 21);
    opts.backend = LikBackendKind::Batched;
    const PooledSmcLikelihood batchedPool({{&l1, 1.0}, {&l2, 1.6}}, opts, 21);
    for (const double theta : {0.4, 1.0, 2.5}) {
        const double la = arenaPool.logL(theta);
        const double lb = batchedPool.logL(theta);
        EXPECT_EQ(std::memcmp(&la, &lb, sizeof(double)), 0) << "theta " << theta;
    }
}

TEST(LikBackendTest, PmmhChainsBackendNeutral) {
    const Alignment aln = simulateData(6, 1.0, 150, 13);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    PmmhOptions po;
    po.chains = 2;
    po.seed = 5;
    po.smc.particles = 32;

    std::vector<double> thetas[2], logZs[2];
    int idx = 0;
    for (const auto backend : {LikBackendKind::Arena, LikBackendKind::Batched}) {
        po.smc.backend = backend;
        PooledSmcLikelihood marg({{&lik, 1.0}}, po.smc, 17);
        ThreadPool pool(2);
        PmmhSampler pmmh(marg, 1.0, po, &pool);
        for (int t = 0; t < 8; ++t) pmmh.tick(nullptr);
        for (std::size_t c = 0; c < po.chains; ++c) {
            thetas[idx].push_back(pmmh.chainTheta(c));
            logZs[idx].push_back(pmmh.chainLogZ(c));
        }
        ++idx;
    }
    EXPECT_EQ(std::memcmp(thetas[0].data(), thetas[1].data(),
                          thetas[0].size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(logZs[0].data(), logZs[1].data(),
                          logZs[0].size() * sizeof(double)),
              0);
}

TEST(LikBackendTest, BatchStatsRecordSharing) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    // Execution counters live in the metrics registry (lik.* taxonomy) —
    // backends keep no private stats copy.
    obs::reset();
    obs::arm();

    SmcOptions opts;
    opts.particles = 128;
    opts.backend = LikBackendKind::Batched;
    const SmcPassResult res = runSmcPass(lik, 1.0, opts, 47);
    EXPECT_EQ(res.backend, "batched");
    const obs::MetricsSnapshot batched = obs::snapshot();
    // One flush per generation plus the tip batch.
    EXPECT_EQ(batched.counter(obs::Counter::LikFlushes), 8u);  // 1 tip + 7 events
    EXPECT_EQ(batched.counter(obs::Counter::LikCombineOps), 7u * 128u);
    // Matrix sharing: a naive execution exponentiates 2 matrices per
    // combine per category (lik.matrices_requested counts exactly that);
    // the batch must do strictly better (equal lengths dedupe within a
    // generation).
    EXPECT_EQ(batched.counter(obs::Counter::LikMatricesRequested),
              7u * 128u * 2u * lik.rateCategories().count());
    EXPECT_GT(batched.counter(obs::Counter::LikMatricesComputed), 0u);
    EXPECT_LT(batched.counter(obs::Counter::LikMatricesComputed),
              batched.counter(obs::Counter::LikMatricesRequested));

    obs::reset();
    opts.backend = LikBackendKind::Arena;
    const SmcPassResult ref = runSmcPass(lik, 1.0, opts, 47);
    EXPECT_EQ(ref.backend, "arena");
    const obs::MetricsSnapshot arena = obs::snapshot();
    EXPECT_EQ(arena.counter(obs::Counter::LikCombineOps),
              batched.counter(obs::Counter::LikCombineOps));
    // The eager backend computes every requested matrix — no dedup.
    EXPECT_EQ(arena.counter(obs::Counter::LikMatricesComputed),
              arena.counter(obs::Counter::LikMatricesRequested));

    obs::disarm();
    obs::reset();
}

}  // namespace
}  // namespace mpcgs
