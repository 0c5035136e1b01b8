// Likelihood backend contract: the arena and batched backends are
// SCHEDULING choices, never numeric ones. Tests pin (1) bitwise agreement
// of the two backends on raw operation sequences, and agreement of the
// trees they build with the scalar pruning reference, (2) bitwise
// backend- and thread-count-invariance of full SMC passes (logZ, sampled
// genealogy, resampling trajectory) across resampling pressure, rate
// heterogeneity and multi-locus pooling, (3) PMMH neutrality (a sampler
// built on either backend walks the identical chain), and (4) the batch
// statistics + option parsing.
#include "lik/lik_backend.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
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

/// A forest built through a backend: every slot's root log-likelihood
/// and the genealogy the merges describe.
struct BuiltForest {
    std::vector<double> logL;
    Genealogy tree;
};

/// Drive `backend` through a random forest-building schedule (tips, then
/// pairwise combines; each new node sits a random height above its older
/// child, so merging two tips passes bit-equal branch lengths) using ONE
/// flush for the tips and one per combine generation. Slot = node id.
BuiltForest buildForest(LikelihoodBackend& backend, int tips, Mt19937& rng) {
    backend.resizeSlots(static_cast<std::size_t>(2 * tips - 1));
    std::vector<LikelihoodBackend::Slot> live;
    BuiltForest out{std::vector<double>(static_cast<std::size_t>(2 * tips - 1)),
                    Genealogy(tips)};
    for (int t = 0; t < tips; ++t) {
        backend.tipInit(t, t, &out.logL[t]);
        live.push_back(t);
    }
    backend.flush(nullptr);
    LikelihoodBackend::Slot next = tips;
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
        backend.combine(next, live[a], t - ta, live[b], t - tb, &out.logL[next]);
        backend.flush(nullptr);
        live[a] = next;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(b));
        ++next;
    }
    out.tree.setRoot(next - 1);
    return out;
}

TEST(LikBackendTest, NamesAndParsing) {
    EXPECT_STREQ(likBackendName(LikBackendKind::Arena), "arena");
    EXPECT_STREQ(likBackendName(LikBackendKind::Batched), "batched");
    EXPECT_EQ(parseLikBackend("arena"), LikBackendKind::Arena);
    EXPECT_EQ(parseLikBackend("batched"), LikBackendKind::Batched);
    EXPECT_THROW(parseLikBackend("gpu"), ConfigError);
    EXPECT_THROW(parseLikBackend(""), ConfigError);
}

TEST(LikBackendTest, BothBackendsAgreeBitwiseAndMatchTheReference) {
    const Alignment aln = simulateData(7, 1.0, 240, 11);
    const F81Model model(aln.baseFrequencies());
    for (const bool gamma : {false, true}) {
        SCOPED_TRACE(gamma ? "gamma" : "one rate");
        const DataLikelihood lik = gamma ? DataLikelihood(aln, model,
                                                          RateCategories::discreteGamma(
                                                              0.6, 4))
                                         : DataLikelihood(aln, model);

        // The same raw-op schedule through both backends.
        Mt19937 scheduleRng(99);
        const auto arena = makeLikelihoodBackend(LikBackendKind::Arena, lik);
        BuiltForest viaArena = buildForest(*arena, 7, scheduleRng);
        scheduleRng = Mt19937(99);
        const auto batched = makeLikelihoodBackend(LikBackendKind::Batched, lik);
        const BuiltForest viaBatched = buildForest(*batched, 7, scheduleRng);

        ASSERT_EQ(viaArena.logL.size(), 13u);
        ASSERT_EQ(viaBatched.logL.size(), 13u);
        for (std::size_t i = 0; i < viaArena.logL.size(); ++i)
            EXPECT_EQ(std::memcmp(&viaArena.logL[i], &viaBatched.logL[i], sizeof(double)), 0)
                << "slot " << i;
        // The backends' slot arenas hold identical partials too.
        for (std::size_t s = 0; s < 13; ++s) {
            const auto da = arena->slotData(s), db = batched->slotData(s);
            ASSERT_EQ(da.size(), db.size());
            EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)), 0)
                << "slot " << s;
        }

        // The completed tree's root factor is its data likelihood.
        EXPECT_EQ(viaArena.tree, viaBatched.tree);
        viaArena.tree.setTipNames(aln.names());
        viaArena.tree.validate();
        const double reference = lik.logLikelihoodReference(viaArena.tree);
        EXPECT_NEAR(viaArena.logL.back(), reference, 1e-9);
        EXPECT_NEAR(viaBatched.logL.back(), reference, 1e-9);
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

/// Forwards every operation to a real backend and counts the cherries: the
/// combines of two tip slots, whose branch lengths are bit-equal (both
/// tips sit at time 0). Combines arrive from the propagation launch, so
/// the count is atomic.
class CherryCount final : public LikelihoodBackend {
  public:
    CherryCount(LikelihoodBackend& inner, Slot tips) : inner_(inner), tips_(tips) {}

    LikBackendKind kind() const override { return inner_.kind(); }
    std::size_t patternCount() const override { return inner_.patternCount(); }
    std::size_t categoryCount() const override { return inner_.categoryCount(); }
    const std::vector<std::string>& tipNames() const override {
        return inner_.tipNames();
    }
    void resizeSlots(std::size_t n) override { inner_.resizeSlots(n); }
    std::size_t slotCount() const override { return inner_.slotCount(); }
    void tipInit(Slot dst, int tip, double* rootLogL) override {
        inner_.tipInit(dst, tip, rootLogL);
    }
    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                 double* rootLogL) override {
        if (childA < tips_ && childB < tips_) cherries_.fetch_add(1, std::memory_order_relaxed);
        inner_.combine(parent, childA, lenA, childB, lenB, rootLogL);
    }
    void flush(ThreadPool* pool) override { inner_.flush(pool); }
    std::span<const double> slotData(Slot slot) const override {
        return inner_.slotData(slot);
    }
    std::span<const double> slotScale(Slot slot) const override {
        return inner_.slotScale(slot);
    }

    std::uint64_t cherries() const { return cherries_.load(); }

  private:
    LikelihoodBackend& inner_;
    Slot tips_;
    std::atomic<std::uint64_t> cherries_{0};
};

TEST(LikBackendTest, BatchStatsRecordSharing) {
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

        // Execution counters live in the metrics registry (lik.* taxonomy) —
        // backends keep no private stats copy.
        obs::MetricsSnapshot snaps[2];
        std::uint64_t cherries[2] = {};
        for (const auto backend : {LikBackendKind::Batched, LikBackendKind::Arena}) {
            const std::size_t b = backend == LikBackendKind::Arena;
            opts.backend = backend;
            obs::reset();
            obs::arm();
            const auto real = makeLikelihoodBackend(backend, lik);
            CherryCount counted(*real, 8);
            SmcFilter filter(counted, 1.0, opts, 47, &pool);
            while (!filter.done()) filter.step();
            EXPECT_EQ(filter.finish().backend, likBackendName(backend));
            snaps[b] = obs::snapshot();
            cherries[b] = counted.cherries();

            // runSmcPass builds the backend opts.backend names and does the
            // same work, launch for launch.
            obs::reset();
            const SmcPassResult res = runSmcPass(lik, 1.0, opts, 47, &pool);
            const obs::MetricsSnapshot direct = obs::snapshot();
            obs::disarm();
            EXPECT_EQ(res.backend, b ? "arena" : "batched");
            for (const auto c : {obs::Counter::LikFlushes, obs::Counter::LikCombineOps,
                                 obs::Counter::LikMatricesComputed, obs::Counter::PoolLaunches})
                EXPECT_EQ(direct.counter(c), snaps[b].counter(c)) << obs::counterName(c);
        }
        obs::reset();

        const obs::MetricsSnapshot& batched = snaps[0];
        // One flush per generation plus the tip batch.
        EXPECT_EQ(batched.counter(obs::Counter::LikFlushes), 8u);  // 1 tip + 7 events
        EXPECT_EQ(batched.counter(obs::Counter::LikCombineOps), 7u * 128u);
        // A naive execution exponentiates 2 matrices per combine per category
        // (lik.matrices_requested counts exactly that); a cherry's two
        // bit-equal branch lengths share one matrix per category.
        EXPECT_EQ(batched.counter(obs::Counter::LikMatricesRequested), 7u * 128u * 2u * C);
        EXPECT_GT(cherries[0], 0u);
        EXPECT_EQ(batched.counter(obs::Counter::LikMatricesComputed),
                  batched.counter(obs::Counter::LikMatricesRequested) - C * cherries[0]);
        // The eager backend runs the same items: the same counts.
        EXPECT_EQ(cherries[1], cherries[0]);
        for (const auto c : {obs::Counter::LikFlushes, obs::Counter::LikCombineOps,
                             obs::Counter::LikMatricesRequested,
                             obs::Counter::LikMatricesComputed})
            EXPECT_EQ(snaps[1].counter(c), batched.counter(c)) << obs::counterName(c);
        // Only the batched backend defers its items to flush(), which runs
        // them as one pool launch per flush; the eager backend's flush
        // launches nothing.
        EXPECT_EQ(batched.counter(obs::Counter::PoolLaunches),
                  snaps[1].counter(obs::Counter::PoolLaunches) +
                      batched.counter(obs::Counter::LikFlushes));
    }
}

}  // namespace
}  // namespace mpcgs
