// Online SMC add-sequence move (src/smc/online_update.h): attachment
// scores must agree with the scalar pruning reference on the explicitly
// grafted tree, an update must leave a normalized cloud whose
// cached likelihoods ARE the grafted trees' likelihoods, results must be
// bitwise invariant to the thread count, and the ESS-threshold boundaries
// (0.0 never / 1.0 always) must behave contractually for both the batch
// filter and the online refresh.
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "lik/felsenstein.h"
#include "lik/locus_likelihoods.h"
#include "lik/rate_model.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "smc/online_update.h"
#include "smc/smc_sampler.h"
#include "util/error.h"
#include "util/logspace.h"
#include "reference_likelihood.h"

namespace mpcgs {
namespace {

/// Simulated alignment of `tips` sequences (fixed seed per call site).
Alignment simAlignment(int tips, std::uint64_t seed, std::size_t length = 120) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(tips, 1.0, rng);
    SeqGenOptions so;
    so.length = length;
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, so, rng);
}

Alignment dropLast(const Alignment& full) {
    return Alignment(std::vector<Sequence>(full.sequences().begin(),
                                           full.sequences().end() - 1));
}

/// Reference graft: copy `t` into an (n+1)-tip arena with the standard id
/// remap (old internals shift up by one, new tip = n, join node = 2n) and
/// splice the new tip onto `attach` at height `h` — the same surgery
/// addSequence performs, built independently here from the public tree API.
Genealogy graftForTest(const Genealogy& t, NodeId attach, double h) {
    const int n = t.tipCount();
    Genealogy g(n + 1);
    const auto map = [n](NodeId id) { return id < n ? id : id + 1; };
    for (NodeId v = 0; v < t.nodeCount(); ++v) g.node(map(v)).time = t.node(v).time;
    const NodeId join = 2 * n;
    g.node(join).time = h;
    for (NodeId v = 0; v < t.nodeCount(); ++v) {
        const NodeId p = t.node(v).parent;
        if (p == kNoNode || v == attach) continue;
        g.link(map(p), map(v));
    }
    if (attach == t.root()) {
        g.link(join, map(t.root()));
        g.link(join, n);
        g.setRoot(join);
    } else {
        g.link(map(t.node(attach).parent), join);
        g.link(join, map(attach));
        g.link(join, n);
        g.setRoot(map(t.root()));
    }
    g.validate();
    return g;
}

/// Every branch of `tree` at three interior heights and the root lineage
/// at three heights above the root: the online score of each graft against
/// the scalar reference of the explicit graft, to `relTol` relative.
void expectAttachmentsMatchReference(const DataLikelihood& lik, const Genealogy& tree,
                                     double relTol) {
    for (NodeId v = 0; v < tree.nodeCount(); ++v) {
        if (v == tree.root()) continue;
        const double lo = tree.node(v).time;
        const double hi = tree.node(tree.node(v).parent).time;
        for (const double f : {0.07, 0.5, 0.93}) {
            const double h = lo + f * (hi - lo);
            const double reference = referenceLogLikelihood(lik, graftForTest(tree, v, h));
            EXPECT_NEAR(onlineAttachmentLogLik(lik, tree, v, h), reference,
                        relTol * std::abs(reference))
                << "attach=" << v << " h=" << h;
        }
    }
    const double tRoot = tree.node(tree.root()).time;
    for (const double dh : {0.05, 0.6, 2.3}) {
        const double h = tRoot + dh;
        const double reference =
            referenceLogLikelihood(lik, graftForTest(tree, tree.root(), h));
        EXPECT_NEAR(onlineAttachmentLogLik(lik, tree, tree.root(), h), reference,
                    relTol * std::abs(reference))
            << "root h=" << h;
    }
}

TEST(OnlineTripodTest, AttachmentLogLikMatchesExplicitGraftEverywhere) {
    const Alignment aln = simAlignment(5, 11);
    const auto model = makeInferenceModel("F81", aln);
    const DataLikelihood lik(aln, *model);

    Mt19937 rng(29);
    const Genealogy tree = simulateCoalescent(4, 1.0, rng);
    expectAttachmentsMatchReference(lik, tree, 1e-9);
}

TEST(OnlineTripodTest, GammaAndHkyScoresMatchTheReferenceOnTwelveTips) {
    const Alignment aln = simAlignment(13, 41);
    Mt19937 rng(43);
    const Genealogy tree = simulateCoalescent(12, 1.0, rng);

    const auto f81 = makeInferenceModel("F81", aln);
    const DataLikelihood gamma(aln, *f81, RateCategories::discreteGamma(0.5, 4));
    expectAttachmentsMatchReference(gamma, tree, 1e-10);

    // HKY85 is a GtrModel: its transition(0), which every branch candidate
    // combines through, equals the identity only to round-off.
    const auto hky = makeInferenceModel("HKY85", aln);
    const DataLikelihood hkyLik(aln, *hky);
    expectAttachmentsMatchReference(hkyLik, tree, 1e-10);
}

TEST(OnlineUpdateTest, FilterAndUpdaterRejectNanTheta) {
    const Alignment full = simAlignment(5, 31);
    const double nan = std::nan("");
    SmcOptions smc;
    smc.particles = 8;
    const auto model = makeInferenceModel("F81", full);
    const DataLikelihood lik(full, *model);
    EXPECT_THROW(runSmcPass(lik, nan, smc, 1), ConfigError);
    EXPECT_THROW(initOnlineState(dropLast(full), nan, smc, "F81", 1), ConfigError);
    OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", 1);
    st.theta = nan;
    EXPECT_THROW(OnlineSmcUpdater(st, OnlineOptions{}), ConfigError);
}

TEST(OnlineUpdateTest, AddSequenceCommitsExactLikelihoodsAndNormalizedWeights) {
    const Alignment full = simAlignment(6, 17);
    SmcOptions smc;
    smc.particles = 48;
    OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", 5);
    ASSERT_EQ(st.particles.size(), 48u);

    OnlineOptions oo;
    oo.essThreshold = 0.0;  // keep the reweighted cloud (no refresh)
    OnlineSmcUpdater updater(st, oo);
    const OnlineUpdateResult res = updater.addSequence(full.sequences().back());

    EXPECT_TRUE(std::isfinite(res.logZIncrement));
    EXPECT_FALSE(res.refreshed);
    EXPECT_EQ(st.updates, 1u);
    EXPECT_EQ(st.alignment.sequenceCount(), 6u);

    // Weights are normalized after the update.
    std::vector<double> logW;
    for (const OnlineParticle& p : st.particles) logW.push_back(p.logW);
    EXPECT_NEAR(logSumExp(std::span<const double>(logW)), 0.0, 1e-9);

    // Every committed particle is a valid 6-tip genealogy whose cached
    // logL IS the full-data Felsenstein likelihood of its tree — the
    // attachment score the proposal used, cross-checked against the
    // independent pruning engine.
    const auto model = makeInferenceModel("F81", st.alignment);
    const DataLikelihood lik(st.alignment, *model);
    for (const OnlineParticle& p : st.particles) {
        ASSERT_EQ(p.tree.tipCount(), 6);
        p.tree.validate();
        const double reference = lik.logLikelihood(p.tree);
        EXPECT_NEAR(p.logL, reference, 1e-10 * std::abs(reference));
    }
}

TEST(OnlineUpdateTest, UpdateIsBitwiseThreadCountInvariant) {
    const Alignment full = simAlignment(6, 23);
    SmcOptions smc;
    smc.particles = 32;
    const OnlineState seedState = initOnlineState(dropLast(full), 1.0, smc, "F81", 9);

    OnlineOptions oo;
    oo.essThreshold = 1.0;  // exercise the refresh + rejuvenation path too
    std::vector<OnlineState> states;
    std::vector<OnlineUpdateResult> results;
    for (const unsigned threads : {1u, 4u, 8u}) {
        ThreadPool pool(threads);
        OnlineState st = seedState;
        OnlineSmcUpdater updater(st, oo, &pool);
        results.push_back(updater.addSequence(full.sequences().back()));
        states.push_back(std::move(st));
    }
    for (std::size_t i = 1; i < states.size(); ++i) {
        EXPECT_EQ(results[0].logZIncrement, results[i].logZIncrement);
        EXPECT_EQ(results[0].essFraction, results[i].essFraction);
        EXPECT_EQ(results[0].rejuvenationAccepts, results[i].rejuvenationAccepts);
        EXPECT_EQ(states[0].logZ, states[i].logZ);
        ASSERT_EQ(states[0].particles.size(), states[i].particles.size());
        for (std::size_t p = 0; p < states[0].particles.size(); ++p) {
            EXPECT_EQ(states[0].particles[p].logW, states[i].particles[p].logW);
            EXPECT_EQ(states[0].particles[p].logL, states[i].particles[p].logL);
            EXPECT_EQ(states[0].particles[p].tree, states[i].particles[p].tree);
        }
    }
}

/// Exact log P(D | theta) for n = 3 by brute force: sum over the 3
/// labelled first pairs and midpoint quadrature over (t3, t2) — the same
/// reference smc_test.cc validates the batch filter against.
double exactLogMarginalThreeTips(const DataLikelihood& lik, const Alignment& aln,
                                 double theta) {
    const int grid = 120;
    const double t3Max = 6.0 * theta;
    const double t2Max = 15.0 * theta;
    const double h3 = t3Max / grid;
    const double h2 = t2Max / grid;
    std::vector<double> logVals;
    logVals.reserve(3 * grid * grid);
    for (int pair = 0; pair < 3; ++pair) {
        const int a = pair == 0 ? 0 : (pair == 1 ? 0 : 1);
        const int b = pair == 0 ? 1 : 2;
        const int c = pair == 0 ? 2 : (pair == 1 ? 1 : 0);
        Genealogy g(3);
        g.setTipNames(aln.names());
        g.link(3, a);
        g.link(3, b);
        g.link(4, 3);
        g.link(4, c);
        g.setRoot(4);
        for (int i = 0; i < grid; ++i) {
            const double t3 = (i + 0.5) * h3;
            for (int j = 0; j < grid; ++j) {
                const double t2 = (j + 0.5) * h2;
                g.node(3).time = t3;
                g.node(4).time = t3 + t2;
                logVals.push_back(logCoalescentWaitDensity(3, t3, theta) +
                                  logCoalescentWaitDensity(2, t2, theta) +
                                  referenceLogLikelihood(lik, g));
            }
        }
    }
    return logSumExp(std::span<const double>(logVals)) + std::log(h3 * h2);
}

TEST(OnlineUpdateTest, ReweightMathMatchesBruteForceQuadratureOnThreeTips) {
    // A 2-tip warm posterior extended online by a 3rd sequence estimates
    // log P(D_3 | theta). The estimator stays unbiased in Z only if the
    // reweight delta uses the EXACT proposal densities (branch softmax and
    // height draw) and prior ratio, so pooling independent replicates must
    // reproduce the brute-force 3-tip marginal. Any density error shifts
    // this mean.
    const Alignment full = simAlignment(3, 101, 80);
    SmcOptions smc;
    smc.particles = 4096;
    std::vector<double> logZs;
    for (const std::uint64_t seed : {201ull, 202ull, 203ull, 204ull}) {
        OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", seed);
        OnlineOptions oo;
        oo.essThreshold = 0.0;  // the raw reweighted estimator, no refresh
        OnlineSmcUpdater updater(st, oo);
        updater.addSequence(full.sequences().back());
        logZs.push_back(st.logZ);
    }
    const double pooled = logSumExp(std::span<const double>(logZs)) -
                          std::log(static_cast<double>(logZs.size()));

    const auto model = makeInferenceModel("F81", full);
    const DataLikelihood lik(full, *model);
    const double exact = exactLogMarginalThreeTips(lik, full, 1.0);
    // Quadrature discretization + Monte-Carlo error across 4 x 4096
    // particles (offline: |diff| well under 0.05).
    EXPECT_NEAR(pooled, exact, 0.15);
}

TEST(OnlineUpdateTest, OnlineLogZAgreesWithColdStartToMonteCarloPrecision) {
    const Alignment full = simAlignment(6, 31);
    SmcOptions smc;
    smc.particles = 512;

    // Warm path: posterior over the first 5 sequences, then one online
    // add-sequence update.
    OnlineState st = initOnlineState(dropLast(full), 1.0, smc, "F81", 41);
    OnlineOptions oo;
    OnlineSmcUpdater updater(st, oo);
    updater.addSequence(full.sequences().back());

    // Cold path: a fresh 6-sequence filter pass (independent seed). Both
    // logZ values estimate the same log P(D_6 | theta); they agree to
    // Monte-Carlo precision, not bitwise.
    const auto model = makeInferenceModel("F81", full);
    const DataLikelihood lik(full, *model);
    const SmcPassResult cold = runSmcPass(lik, 1.0, smc, 97);

    EXPECT_TRUE(std::isfinite(st.logZ));
    EXPECT_NEAR(st.logZ, cold.logZ, 12.0);
    const double theta = onlineThetaEstimate(st);
    EXPECT_GT(theta, 0.0);
    EXPECT_TRUE(std::isfinite(theta));
    EXPECT_GT(onlineEssFraction(st), 0.0);
}

TEST(EssThresholdBoundaryTest, BatchFilterHonorsTheContractAtBothBoundaries) {
    const Alignment aln = simAlignment(6, 43);
    const auto model = makeInferenceModel("F81", aln);
    const DataLikelihood lik(aln, *model);

    SmcOptions smc;
    smc.particles = 64;

    // 0.0: never resample. ESS can reach 1, but the trigger is disabled.
    smc.essThreshold = 0.0;
    EXPECT_EQ(runSmcPass(lik, 1.0, smc, 7).resamples, 0u);

    // 1.0: resample on EVERY step (n-1 coalescences, last step excluded),
    // even when the cloud is exactly uniform (ESS == N) — the regression
    // this contract exists for.
    smc.essThreshold = 1.0;
    EXPECT_EQ(runSmcPass(lik, 1.0, smc, 7).resamples,
              static_cast<std::size_t>(aln.sequenceCount()) - 2);

    // Interior threshold: bounded by the two boundaries.
    smc.essThreshold = 0.5;
    const std::size_t mid = runSmcPass(lik, 1.0, smc, 7).resamples;
    EXPECT_LE(mid, static_cast<std::size_t>(aln.sequenceCount()) - 2);
}

TEST(EssThresholdBoundaryTest, OnlineRefreshHonorsTheContractAtBothBoundaries) {
    const Alignment full = simAlignment(6, 47);
    SmcOptions smc;
    smc.particles = 32;
    const OnlineState seedState = initOnlineState(dropLast(full), 1.0, smc, "F81", 3);

    {
        OnlineState st = seedState;
        OnlineOptions oo;
        oo.essThreshold = 0.0;
        OnlineSmcUpdater updater(st, oo);
        EXPECT_FALSE(updater.addSequence(full.sequences().back()).refreshed);
    }
    {
        OnlineState st = seedState;
        OnlineOptions oo;
        oo.essThreshold = 1.0;
        OnlineSmcUpdater updater(st, oo);
        const OnlineUpdateResult res = updater.addSequence(full.sequences().back());
        EXPECT_TRUE(res.refreshed);
        // After a refresh the weights are uniform: ESS/N == 1.
        EXPECT_NEAR(onlineEssFraction(st), 1.0, 1e-12);
    }
}

}  // namespace
}  // namespace mpcgs
