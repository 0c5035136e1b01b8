// SMC subsystem: partial-forest likelihood agreement with the pruning
// reference, exact-marginal validation of the unbiased logZ estimator on
// tiny trees (quadrature over all of genealogy space), bitwise
// thread-count invariance of logZ and of a full PMMH run, the particle
// cloud's write-once slot discipline (audited through a forwarding
// backend), kill+resume of PMMH being bitwise-identical, scheme
// cross-agreement, the SmcThetaLikelihood curve behaving as a likelihood
// (maximizer near the data's information), and checkpoint format v5 with
// v1-v4 read-compat.
#include "smc/smc_sampler.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/smc_estimator.h"
#include "mcmc/checkpoint.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/particle_cloud.h"
#include "smc/pmmh.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
}

Alignment simulateData(int n, double theta, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

// --- forest evaluation -------------------------------------------------

/// Assemble `g` bottom-up through an arena backend's tipInit/combine,
/// exactly the way a particle grows (slot = node id), and return every
/// node's root log-likelihood.
std::vector<double> forestRootLogLiks(const DataLikelihood& lik, const Genealogy& g) {
    const auto backend = makeLikelihoodBackend(LikBackendKind::Arena, lik);
    backend->resizeSlots(static_cast<std::size_t>(g.nodeCount()));
    std::vector<double> rootLogL(static_cast<std::size_t>(g.nodeCount()));
    for (const NodeId id : g.postorder()) {
        const auto slot = static_cast<LikelihoodBackend::Slot>(id);
        if (g.isTip(id)) {
            backend->tipInit(slot, id, &rootLogL[id]);
        } else {
            const NodeId a = g.node(id).child[0];
            const NodeId b = g.node(id).child[1];
            backend->combine(slot, static_cast<LikelihoodBackend::Slot>(a), g.branchLength(a),
                             static_cast<LikelihoodBackend::Slot>(b), g.branchLength(b),
                             &rootLogL[id]);
        }
        backend->flush(nullptr);
    }
    return rootLogL;
}

TEST(ForestEvalTest, FullTreeAgreesWithPruningReference) {
    const Alignment aln = simulateData(7, 1.0, 200, 5);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    Mt19937 rng(8);
    const Genealogy g = simulateCoalescent(7, 1.0, rng);
    EXPECT_NEAR(forestRootLogLiks(lik, g)[g.root()], lik.logLikelihoodReference(g), 1e-9);
}

TEST(ForestEvalTest, RateHeterogeneousFullTreeAgrees) {
    const Alignment aln = simulateData(5, 1.0, 150, 6);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model, RateCategories::discreteGamma(0.5, 4));

    Mt19937 rng(9);
    const Genealogy g = simulateCoalescent(5, 1.0, rng);
    EXPECT_NEAR(forestRootLogLiks(lik, g)[g.root()], lik.logLikelihoodReference(g), 1e-9);
}

// --- exact-marginal validation -----------------------------------------

/// Exact log P(D | theta) for n = 2 by quadrature: the genealogy is a
/// single coalescence time with density (2/theta) e^{-2t/theta} (Eq. 17).
double exactLogMarginalTwoTips(const DataLikelihood& lik, const Alignment& aln,
                               double theta) {
    Genealogy g(2);
    g.setTipNames(aln.names());
    g.link(2, 0);
    g.link(2, 1);
    g.setRoot(2);
    // Trapezoid on a fine grid; the integrand decays like e^{-2t/theta}.
    const double tMax = 15.0 * theta;
    const int steps = 4000;
    const double h = tMax / steps;
    std::vector<double> logVals;
    logVals.reserve(steps + 1);
    for (int i = 0; i <= steps; ++i) {
        const double t = i == 0 ? 1e-9 : i * h;
        g.node(2).time = t;
        double lg = logCoalescentWaitDensity(2, t, theta) + lik.logLikelihoodReference(g);
        if (i == 0 || i == steps) lg += std::log(0.5);
        logVals.push_back(lg);
    }
    return logSumExp(logVals) + std::log(h);
}

TEST(SmcLogZTest, MatchesExactMarginalOnTwoTips) {
    const Alignment aln = simulateData(2, 1.0, 120, 11);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    for (const double theta : {0.5, 1.0, 2.0}) {
        const double exact = exactLogMarginalTwoTips(lik, aln, theta);
        SmcOptions opts;
        opts.particles = 4096;
        const double logZ = runSmcPass(lik, theta, opts, 17).logZ;
        // With 4096 particles and one event the estimator variance is tiny;
        // 0.05 log units is ~5 sigma headroom (checked offline).
        EXPECT_NEAR(logZ, exact, 0.05) << "theta = " << theta;
    }
}

/// Exact log P(D | theta) for n = 3: sum over the 3 labelled first pairs
/// and 2D quadrature over (t3, t2). Each event's density is Eq. 17.
double exactLogMarginalThreeTips(const DataLikelihood& lik, const Alignment& aln,
                                 double theta) {
    const int grid = 120;
    const double t3Max = 6.0 * theta;   // 3-lineage phase: rate 6/theta
    const double t2Max = 15.0 * theta;  // 2-lineage phase: rate 2/theta
    const double h3 = t3Max / grid;
    const double h2 = t2Max / grid;
    std::vector<double> logVals;
    logVals.reserve(3 * grid * grid);
    for (int pair = 0; pair < 3; ++pair) {
        // First coalescence joins (a, b); the third tip joins at the root.
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
                                  lik.logLikelihoodReference(g));
            }
        }
    }
    return logSumExp(logVals) + std::log(h3 * h2);
}

TEST(SmcLogZTest, MatchesExactMarginalOnThreeTips) {
    const Alignment aln = simulateData(3, 1.0, 80, 13);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);

    const double exact = exactLogMarginalThreeTips(lik, aln, 1.0);
    SmcOptions opts;
    opts.particles = 4096;
    // Average several independent passes in linear space (the estimator is
    // unbiased in Z, not logZ) to shrink the Monte-Carlo error.
    std::vector<double> logZs;
    for (const std::uint64_t seed : {21ull, 22ull, 23ull, 24ull})
        logZs.push_back(runSmcPass(lik, 1.0, opts, seed).logZ);
    const double pooled =
        logSumExp(logZs) - std::log(static_cast<double>(logZs.size()));
    // Quadrature discretization + MC error; 0.1 log units is ample
    // (offline: |diff| < 0.03 across seeds).
    EXPECT_NEAR(pooled, exact, 0.1);
}

TEST(SmcLogZTest, SampledGenealogyIsValidAndPosteriorConsistent) {
    const Alignment aln = simulateData(6, 1.0, 150, 19);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 256;
    const SmcPassResult res = runSmcPass(lik, 1.0, opts, 3);
    res.sampled.validate();
    EXPECT_EQ(res.sampled.tipCount(), 6);
    EXPECT_NEAR(res.sampledLogPosterior,
                lik.logLikelihoodReference(res.sampled) +
                    logCoalescentPrior(res.sampled, 1.0),
                1e-8);
    EXPECT_TRUE(std::isfinite(res.logZ));
}

// --- determinism -------------------------------------------------------

TEST(SmcDeterminismTest, LogZIsBitwiseThreadCountInvariant) {
    const Alignment aln = simulateData(8, 1.0, 200, 23);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 512;

    const SmcPassResult serial = runSmcPass(lik, 1.0, opts, 41, nullptr);
    for (const unsigned threads : {1u, 4u, 8u}) {
        ThreadPool pool(threads);
        const SmcPassResult res = runSmcPass(lik, 1.0, opts, 41, &pool);
        EXPECT_EQ(std::memcmp(&res.logZ, &serial.logZ, sizeof(double)), 0)
            << threads << " threads: " << res.logZ << " vs " << serial.logZ;
        EXPECT_EQ(res.sampled, serial.sampled) << threads << " threads";
    }
}

TEST(SmcDeterminismTest, EveryResamplingSchemeGivesAFiniteConsistentLogZ) {
    const Alignment aln = simulateData(6, 1.0, 150, 29);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 2048;
    opts.essThreshold = 0.7;  // force resampling to actually trigger

    std::vector<double> logZs;
    for (const ResamplingScheme scheme :
         {ResamplingScheme::Multinomial, ResamplingScheme::Stratified,
          ResamplingScheme::Systematic, ResamplingScheme::Residual}) {
        opts.scheme = scheme;
        const SmcPassResult res = runSmcPass(lik, 1.0, opts, 7);
        EXPECT_TRUE(std::isfinite(res.logZ)) << resamplingSchemeName(scheme);
        EXPECT_GT(res.resamples, 0u) << resamplingSchemeName(scheme);
        logZs.push_back(res.logZ);
    }
    // All four schemes target the same marginal likelihood.
    for (std::size_t i = 1; i < logZs.size(); ++i)
        EXPECT_NEAR(logZs[i], logZs[0], 1.0) << "scheme " << i;
}

// --- write-once slots --------------------------------------------------

/// Forwards every operation to a real backend and audits the particle
/// cloud's slot discipline: each parent slot is written by exactly one
/// combine per pass, and every child a combine reads is a tip slot or was
/// written in an earlier generation (before the last flush). Combines
/// arrive concurrently from the propagation launch, so the audit state is
/// atomic and violations are counted, then asserted on the test thread.
class WriteOnceAudit final : public LikelihoodBackend {
  public:
    explicit WriteOnceAudit(LikelihoodBackend& inner) : inner_(inner) {}

    LikBackendKind kind() const override { return inner_.kind(); }
    std::size_t patternCount() const override { return inner_.patternCount(); }
    std::size_t categoryCount() const override { return inner_.categoryCount(); }
    const std::vector<std::string>& tipNames() const override {
        return inner_.tipNames();
    }

    void resizeSlots(std::size_t n) override {
        requested_.push_back(n);
        isTip_.assign(n, 0);
        writes_ = std::make_unique<std::atomic<int>[]>(n);
        writtenIn_ = std::make_unique<std::atomic<int>[]>(n);
        inner_.resizeSlots(n);
    }
    std::size_t slotCount() const override { return inner_.slotCount(); }

    void tipInit(Slot dst, int tip, double* rootLogL) override {
        isTip_[dst] = 1;
        inner_.tipInit(dst, tip, rootLogL);
    }
    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                 double* rootLogL) override {
        writes_[parent].fetch_add(1, std::memory_order_relaxed);
        writtenIn_[parent].store(generation_, std::memory_order_relaxed);
        for (const Slot child : {childA, childB}) {
            const bool earlier =
                writes_[child].load(std::memory_order_relaxed) == 1 &&
                writtenIn_[child].load(std::memory_order_relaxed) < generation_;
            if (!isTip_[child] && !earlier)
                badChildren_.fetch_add(1, std::memory_order_relaxed);
        }
        inner_.combine(parent, childA, lenA, childB, lenB, rootLogL);
    }
    void flush(ThreadPool* pool) override {
        inner_.flush(pool);
        ++generation_;
    }

    std::span<const double> slotData(Slot slot) const override {
        return inner_.slotData(slot);
    }
    std::span<const double> slotScale(Slot slot) const override {
        return inner_.slotScale(slot);
    }

    const std::vector<std::size_t>& requestedSizes() const { return requested_; }
    int writes(Slot s) const { return writes_[s].load(std::memory_order_relaxed); }
    std::size_t badChildren() const { return badChildren_.load(); }

  private:
    LikelihoodBackend& inner_;
    std::vector<std::size_t> requested_;
    std::vector<std::uint8_t> isTip_;
    std::unique_ptr<std::atomic<int>[]> writes_;
    std::unique_ptr<std::atomic<int>[]> writtenIn_;  ///< generation of the write
    int generation_ = 1;  ///< bumped by each flush (serial context)
    std::atomic<std::size_t> badChildren_{0};
};

TEST(SmcWriteOnceTest, SlotsAreWrittenOnceAndReadOnlyAfterTheirGeneration) {
    const Alignment aln = simulateData(8, 1.0, 200, 31);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    constexpr std::size_t kTips = 8;
    SmcOptions opts;
    opts.particles = 96;
    opts.essThreshold = 1.0;  // resample every step: offspring share slots
    ThreadPool pool(4);

    for (const auto backend : {LikBackendKind::Arena, LikBackendKind::Batched}) {
        SCOPED_TRACE(likBackendName(backend));
        opts.backend = backend;
        const auto real = makeLikelihoodBackend(backend, lik);
        WriteOnceAudit audit(*real);
        SmcFilter filter(audit, 1.0, opts, 4711, &pool);
        while (!filter.done()) filter.step();
        const SmcPassResult res = filter.finish();

        // No staging region: tips plus one write-once region per particle.
        const std::size_t slots = kTips + opts.particles * (kTips - 1);
        EXPECT_EQ(audit.requestedSizes(), std::vector<std::size_t>{slots});
        EXPECT_EQ(res.resamples, kTips - 2);  // every event but the last
        EXPECT_EQ(audit.badChildren(), 0u);
        for (std::size_t s = 0; s < slots; ++s)
            EXPECT_EQ(audit.writes(static_cast<LikelihoodBackend::Slot>(s)),
                      s < kTips ? 0 : 1)
                << "slot " << s;

        // Auditing is transparent: the pass equals an unaudited one.
        const SmcPassResult plain = runSmcPass(lik, 1.0, opts, 4711, &pool);
        EXPECT_EQ(std::memcmp(&res.logZ, &plain.logZ, sizeof(double)), 0);
        EXPECT_EQ(res.sampled, plain.sampled);
    }
}

// --- SmcThetaLikelihood ------------------------------------------------

TEST(SmcThetaLikelihoodTest, CurveIsDeterministicAndPeaksInTheInterior) {
    const Alignment aln = simulateData(6, 1.0, 300, 31);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 512;
    const SmcThetaLikelihood curve(lik, opts, 55);

    EXPECT_EQ(curve.logL(1.0), curve.logL(1.0));  // common random numbers
    // The marginal likelihood must fall off on both flanks of the truth.
    const double atTruth = curve.logL(1.0);
    EXPECT_GT(atTruth, curve.logL(0.02));
    EXPECT_GT(atTruth, curve.logL(50.0));
}

// --- PMMH --------------------------------------------------------------

PmmhEstimateOptions smallPmmhOptions(std::uint64_t seed) {
    PmmhEstimateOptions opts;
    opts.theta0 = 1.0;
    opts.samples = 30;
    opts.burnInFraction1000 = 200;
    opts.pmmh.chains = 2;
    opts.pmmh.seed = seed;
    opts.pmmh.smc.particles = 64;
    return opts;
}

TEST(PmmhTest, RunIsBitwiseThreadCountInvariant) {
    const Alignment aln = simulateData(6, 1.0, 120, 37);
    const Dataset ds = Dataset::single(aln);
    const PmmhEstimateOptions opts = smallPmmhOptions(61);

    const PmmhEstimateResult serial = runPmmh(ds, opts, nullptr);
    EXPECT_GT(serial.samples, 0u);
    for (const unsigned threads : {4u, 8u}) {
        ThreadPool pool(threads);
        const PmmhEstimateResult res = runPmmh(ds, opts, &pool);
        ASSERT_EQ(res.thetaChainMajor.size(), serial.thetaChainMajor.size());
        EXPECT_EQ(std::memcmp(res.thetaChainMajor.data(), serial.thetaChainMajor.data(),
                              res.thetaChainMajor.size() * sizeof(double)),
                  0)
            << threads << " threads";
        EXPECT_EQ(std::memcmp(&res.posteriorMean, &serial.posteriorMean, sizeof(double)),
                  0);
    }
}

TEST(PmmhTest, KillAndResumeIsBitwiseIdentical) {
    const Alignment aln = simulateData(6, 1.0, 120, 43);
    const Dataset ds = Dataset::single(aln);

    // Reference: uninterrupted run.
    PmmhEstimateOptions opts = smallPmmhOptions(67);
    const PmmhEstimateResult full = runPmmh(ds, opts);

    // Interrupted: snapshot every tick, crash at a partial sample cap,
    // resume out to the full cap. Burn-in ticks derive from the cap
    // (ceil(cap * permille / 1000)), so the partial cap is chosen to give
    // the same burn-in as the full run (22 -> 11 ticks, 30 -> 15 ticks,
    // both ceil to 3 burn ticks at 200 permille) — resuming then replays
    // the identical tick sequence.
    const std::string path = tempPath("pmmh_midrun.mpck");
    PmmhEstimateOptions part = opts;
    part.samples = 22;
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 1;
    runPmmh(ds, part);

    PmmhEstimateOptions rest = opts;
    rest.checkpointPath = path;
    rest.checkpointIntervalTicks = 1;
    rest.resume = true;
    const PmmhEstimateResult resumed = runPmmh(ds, rest);

    ASSERT_EQ(resumed.thetaChainMajor.size(), full.thetaChainMajor.size());
    EXPECT_EQ(std::memcmp(resumed.thetaChainMajor.data(), full.thetaChainMajor.data(),
                          full.thetaChainMajor.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&resumed.posteriorMean, &full.posteriorMean, sizeof(double)), 0);
    EXPECT_EQ(resumed.acceptRate, full.acceptRate);
    std::remove(path.c_str());
}

TEST(PmmhTest, ResumeWithALargerCapExtendsTheRunAsAPureContinuation) {
    // Extending --samples on resume must only ADD sampling ticks: the burn
    // geometry is frozen in the snapshot (recomputing it from the larger
    // cap would inject burn ticks into the middle of the chain), so the
    // extended run's trace starts with the interrupted run's trace.
    const Alignment aln = simulateData(5, 1.0, 100, 83);
    const Dataset ds = Dataset::single(aln);
    const std::string path = tempPath("pmmh_extend.mpck");

    PmmhEstimateOptions part = smallPmmhOptions(89);
    part.samples = 14;  // a cap whose recomputed burn ticks would differ
    part.checkpointPath = path;
    part.checkpointIntervalTicks = 1;
    const PmmhEstimateResult before = runPmmh(ds, part);

    PmmhEstimateOptions ext = part;
    ext.samples = 30;
    ext.resume = true;
    const PmmhEstimateResult after = runPmmh(ds, ext);

    ASSERT_GT(after.thetaChainMajor.size(), before.thetaChainMajor.size());
    // Traces are chain-major with equal per-chain lengths; each chain's
    // pre-resume draws must be a bitwise prefix of its extended trace.
    const std::size_t chains = 2;
    const std::size_t perBefore = before.thetaChainMajor.size() / chains;
    const std::size_t perAfter = after.thetaChainMajor.size() / chains;
    ASSERT_GT(perAfter, perBefore);
    for (std::size_t c = 0; c < chains; ++c)
        for (std::size_t i = 0; i < perBefore; ++i) {
            const double b = before.thetaChainMajor[c * perBefore + i];
            const double a = after.thetaChainMajor[c * perAfter + i];
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
                << "chain " << c << " draw " << i << " changed on resume";
        }
    std::remove(path.c_str());
}

TEST(PmmhTest, ResumeWithIncompatibleConfigurationIsRejected) {
    const Alignment aln = simulateData(5, 1.0, 100, 47);
    const Dataset ds = Dataset::single(aln);
    const std::string path = tempPath("pmmh_mismatch.mpck");
    PmmhEstimateOptions opts = smallPmmhOptions(71);
    opts.samples = 8;
    opts.checkpointPath = path;
    opts.checkpointIntervalTicks = 1;
    runPmmh(ds, opts);

    PmmhEstimateOptions other = opts;
    other.resume = true;
    other.pmmh.smc.particles = 128;  // different filter geometry
    EXPECT_THROW(runPmmh(ds, other), ConfigError);

    // Unreadable snapshots raise ResumeError (fresh-run fallback signal).
    // Two-generation retention would rescue a corrupt latest via .prev,
    // so drop that generation first.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "garbage";
    }
    std::remove((path + ".prev").c_str());
    PmmhEstimateOptions broken = opts;
    broken.resume = true;
    EXPECT_THROW(runPmmh(ds, broken), ResumeError);
    std::remove(path.c_str());
}

TEST(PmmhTest, MultiLocusPooledPosteriorCoversTheTruth) {
    Dataset ds;
    Mt19937 rng(53);
    for (int l = 0; l < 3; ++l) {
        const Genealogy g = simulateCoalescent(5, 1.0, rng);
        const auto model = makeF84(2.0, kUniformFreqs);
        ds.add(Locus{"locus" + std::to_string(l),
                     simulateSequences(g, *model, {150, 1.0}, rng), 1.0});
    }
    PmmhEstimateOptions opts;
    opts.theta0 = 0.5;
    opts.samples = 120;
    opts.pmmh.chains = 2;
    opts.pmmh.seed = 59;
    opts.pmmh.smc.particles = 128;
    const PmmhEstimateResult res = runPmmh(ds, opts);
    EXPECT_GT(res.acceptRate, 0.0);
    EXPECT_GT(res.posteriorMean, 0.1);
    EXPECT_LT(res.posteriorMean, 10.0);
    EXPECT_LE(res.q025, res.median);
    EXPECT_LE(res.median, res.q975);
}

// --- checkpoint format -------------------------------------------------

TEST(SmcCheckpointTest, FormatIsV5AndOlderVersionsStillLoad) {
    EXPECT_EQ(kCheckpointVersion, 5u);
    EXPECT_EQ(kCheckpointMinVersion, 1u);
    // v1-v4 files (as written by earlier releases) must still open and
    // read; only v6+ is rejected.
    for (const std::uint32_t v : {1u, 2u, 3u, 4u}) {
        const std::string path = tempPath("smc_v" + std::to_string(v) + ".mpck");
        {
            CheckpointWriter w(path, v);
            w.u64(99);
            w.str("older section");
            w.commit();
        }
        CheckpointReader r(path);
        EXPECT_EQ(r.version(), v);
        EXPECT_EQ(r.u64(), 99u);
        EXPECT_EQ(r.str(), "older section");
        std::remove(path.c_str());
    }
}

TEST(SmcCheckpointTest, PmmhSnapshotSectionRoundTripsThroughTheSampler) {
    const Alignment aln = simulateData(5, 1.0, 100, 73);
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model);
    PooledSmcLikelihood pooled({{&lik, 1.0}}, SmcOptions{.particles = 32}, 3);

    PmmhOptions po;
    po.chains = 2;
    po.seed = 77;
    po.smc.particles = 32;
    PmmhSampler a(pooled, 1.0, po);
    for (int i = 0; i < 4; ++i) a.tick(nullptr);

    const std::string path = tempPath("psmc_section.mpck");
    {
        CheckpointWriter w(path);
        a.save(w);
        w.commit();
    }
    PmmhSampler b(pooled, 1.0, po);
    {
        CheckpointReader r(path);
        EXPECT_EQ(r.version(), kCheckpointVersion);
        b.load(r);
    }
    // Continue both; the continuation must be bitwise identical.
    for (int i = 0; i < 3; ++i) {
        a.tick(nullptr);
        b.tick(nullptr);
    }
    for (std::size_t c = 0; c < 2; ++c) {
        const double thetaA = a.chainTheta(c), thetaB = b.chainTheta(c);
        const double logZA = a.chainLogZ(c), logZB = b.chainLogZ(c);
        EXPECT_EQ(std::memcmp(&thetaA, &thetaB, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&logZA, &logZB, sizeof(double)), 0);
    }
    EXPECT_EQ(a.continuation(), b.continuation());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcgs
