// Multi-locus joint-theta inference: pooled-likelihood math, L = 1
// equivalence with the single-alignment path, bitwise thread-count
// invariance of multi-locus runs, pooled-estimate accuracy, checkpoint v2
// kill/resume and v1 read compatibility, and option validation.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "core/locus_problem.h"
#include "core/samplers.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/checkpoint.h"
#include "rng/mt19937.h"
#include "rng/splitmix.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"

namespace mpcgs {
namespace {

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
}

Alignment simulateLocus(int n, double theta, std::size_t length, std::uint64_t seed) {
    Mt19937 rng = Mt19937::fromSplitMix(seed);
    const Genealogy g = simulateCoalescent(n, theta, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

/// L independent loci under one true theta, per-locus seeds via SplitMix64.
Dataset simulateDataset(std::size_t loci, int n, double theta, std::size_t length,
                        std::uint64_t seed) {
    Dataset ds;
    for (std::size_t l = 0; l < loci; ++l)
        ds.add(Locus{"locus" + std::to_string(l),
                     simulateLocus(n, theta, length, splitMix64At(seed, l)), 1.0});
    return ds;
}

MpcgsOptions quickOptions(Strategy strategy) {
    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 2;
    o.samplesPerIteration = 400;
    o.strategy = strategy;
    o.gmhProposals = 16;
    o.gmhSamplesPerSet = 8;
    o.chains = 4;
    o.seed = 31;
    return o;
}

/// Truly bitwise double equality (EXPECT_DOUBLE_EQ tolerates 4 ULP, which
/// would let exactly the reduction-order drift these tests exist to catch
/// slip through).
#define EXPECT_BITWISE_EQ(x, y) \
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(x)), \
              std::bit_cast<std::uint64_t>(static_cast<double>(y)))

void expectBitwiseEqual(const MpcgsResult& a, const MpcgsResult& b) {
    EXPECT_BITWISE_EQ(a.theta, b.theta);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_BITWISE_EQ(a.history[i].thetaBefore, b.history[i].thetaBefore);
        EXPECT_BITWISE_EQ(a.history[i].thetaAfter, b.history[i].thetaAfter);
        EXPECT_BITWISE_EQ(a.history[i].logLAtMax, b.history[i].logLAtMax);
        EXPECT_EQ(a.history[i].samples, b.history[i].samples);
        EXPECT_BITWISE_EQ(a.history[i].moveRate, b.history[i].moveRate);
    }
    ASSERT_EQ(a.loci.size(), b.loci.size());
    for (std::size_t l = 0; l < a.loci.size(); ++l) {
        EXPECT_BITWISE_EQ(a.loci[l].drivingTheta, b.loci[l].drivingTheta);
        ASSERT_EQ(a.loci[l].summaries.size(), b.loci[l].summaries.size());
        for (std::size_t i = 0; i < a.loci[l].summaries.size(); ++i) {
            EXPECT_BITWISE_EQ(a.loci[l].summaries[i].weightedSum,
                              b.loci[l].summaries[i].weightedSum);
            EXPECT_EQ(a.loci[l].summaries[i].events, b.loci[l].summaries[i].events);
        }
    }
}

// --- pooled likelihood math --------------------------------------------

TEST(PooledLikelihoodTest, PooledLogLIsSumOfScaledLocusCurves) {
    std::vector<IntervalSummary> s1{{3.0, 5}, {4.5, 5}, {2.5, 5}};
    std::vector<IntervalSummary> s2{{6.0, 7}, {5.0, 7}};
    const RelativeLikelihood rl1(s1, 0.8);
    const RelativeLikelihood rl2(s2, 1.6);  // driving theta of a mu=2 locus at theta0=0.8

    std::vector<PooledRelativeLikelihood::LocusTerm> terms;
    terms.push_back({RelativeLikelihood(s1, 0.8), 1.0, "a"});
    terms.push_back({RelativeLikelihood(s2, 1.6), 2.0, "b"});
    const PooledRelativeLikelihood pooled(std::move(terms));

    for (const double theta : {0.3, 0.8, 1.1, 2.7})
        EXPECT_DOUBLE_EQ(pooled.logL(theta), rl1.logL(theta) + rl2.logL(2.0 * theta));
    EXPECT_EQ(pooled.sampleCount(), 5u);
}

TEST(PooledLikelihoodTest, SingleLocusPoolReducesToPlainCurve) {
    std::vector<IntervalSummary> s{{3.0, 4}, {4.0, 4}, {3.5, 4}};
    const RelativeLikelihood rl(s, 1.0);
    std::vector<PooledRelativeLikelihood::LocusTerm> terms;
    terms.push_back({RelativeLikelihood(s, 1.0), 1.0, "only"});
    const PooledRelativeLikelihood pooled(std::move(terms));
    for (const double theta : {0.2, 1.0, 4.0})
        EXPECT_DOUBLE_EQ(pooled.logL(theta), rl.logL(theta));
}

TEST(PooledLikelihoodTest, LocusStreamSeedKeepsLocusZeroUnchanged) {
    EXPECT_EQ(locusStreamSeed(0xABCDEF0123456789ull, 0), 0xABCDEF0123456789ull);
    EXPECT_NE(locusStreamSeed(0xABCDEF0123456789ull, 1), 0xABCDEF0123456789ull);
}

// --- L = 1 equivalence and thread invariance ---------------------------

TEST(MultiLocusDriverTest, SingleLocusDatasetMatchesAlignmentPathPerStrategy) {
    const Alignment aln = simulateLocus(7, 1.0, 250, 101);
    for (const Strategy s : {Strategy::Gmh, Strategy::SerialMh, Strategy::MultiChain,
                             Strategy::HeatedMh}) {
        const MpcgsOptions o = quickOptions(s);
        ThreadPool pool(4);
        const MpcgsResult viaAlignment = estimateTheta(aln, o, &pool);
        const MpcgsResult viaDataset = estimateTheta(Dataset::single(aln), o, &pool);
        expectBitwiseEqual(viaAlignment, viaDataset);
        // The L = 1 result's locus section mirrors the flat fields.
        ASSERT_EQ(viaDataset.loci.size(), 1u);
        EXPECT_DOUBLE_EQ(viaDataset.loci[0].drivingTheta, viaDataset.finalDrivingTheta);
        EXPECT_EQ(viaDataset.loci[0].summaries.size(), viaDataset.finalSummaries.size());
    }
}

TEST(MultiLocusDriverTest, MultiLocusRunIsBitwiseInvariantToThreadCount) {
    const Dataset ds = simulateDataset(4, 6, 1.0, 180, 55);
    for (const Strategy s : {Strategy::Gmh, Strategy::MultiChain, Strategy::HeatedMh}) {
        const MpcgsOptions o = quickOptions(s);
        ThreadPool pool1(1), pool4(4), pool8(8);
        const MpcgsResult r1 = estimateTheta(ds, o, &pool1);
        const MpcgsResult r4 = estimateTheta(ds, o, &pool4);
        const MpcgsResult r8 = estimateTheta(ds, o, &pool8);
        expectBitwiseEqual(r1, r4);
        expectBitwiseEqual(r1, r8);
        // And the no-pool serial path matches too.
        const MpcgsResult r0 = estimateTheta(ds, o, nullptr);
        expectBitwiseEqual(r1, r0);
    }
}

TEST(MultiLocusDriverTest, EveryLocusContributesSamples) {
    const Dataset ds = simulateDataset(3, 6, 1.0, 150, 56);
    const MpcgsOptions o = quickOptions(Strategy::Gmh);
    const MpcgsResult res = estimateTheta(ds, o);
    ASSERT_EQ(res.loci.size(), 3u);
    std::size_t total = 0;
    for (const LocusFinal& lf : res.loci) {
        EXPECT_FALSE(lf.summaries.empty());
        total += lf.summaries.size();
    }
    EXPECT_EQ(total, res.history.back().samples);
    // Loci are exchangeable but not identical: their samples differ.
    EXPECT_NE(res.loci[0].summaries.front().weightedSum,
              res.loci[1].summaries.front().weightedSum);
}

TEST(MultiLocusDriverTest, MutationScaleShiftsLocusDrivingTheta) {
    Dataset ds;
    ds.add(Locus{"slow", simulateLocus(6, 0.5, 150, 7001), 0.5});
    ds.add(Locus{"fast", simulateLocus(6, 2.0, 150, 7002), 2.0});
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    const MpcgsResult res = estimateTheta(ds, o);
    ASSERT_EQ(res.loci.size(), 2u);
    // Each locus's final driving theta is mu_l * (shared driving theta).
    const double driving = res.history.back().thetaBefore;
    EXPECT_DOUBLE_EQ(res.loci[0].drivingTheta, 0.5 * driving);
    EXPECT_DOUBLE_EQ(res.loci[1].drivingTheta, 2.0 * driving);
    EXPECT_GT(res.theta, 0.0);
}

// --- pooling accuracy ---------------------------------------------------

TEST(MultiLocusDriverTest, PooledEstimateBeatsWorstSingleLocusRun) {
    // 8 loci simulated under theta* = 1. Single-locus estimates scatter
    // widely (one locus is one genealogy draw); the pooled estimate uses
    // 8 independent genealogies' information and lands closer to theta*
    // than the worst single-locus run — and close in absolute terms.
    const std::size_t L = 8;
    const Dataset ds = simulateDataset(L, 8, 1.0, 200, 90);
    MpcgsOptions o = quickOptions(Strategy::Gmh);
    o.emIterations = 3;
    o.samplesPerIteration = 600;
    ThreadPool pool(8);

    const double pooled = estimateTheta(ds, o, &pool).theta;
    const double pooledErr = std::fabs(std::log(pooled));

    std::vector<double> singleErrs;
    for (std::size_t l = 0; l < L; ++l) {
        Dataset one;
        one.add(ds.locus(l));
        singleErrs.push_back(std::fabs(std::log(estimateTheta(one, o, &pool).theta)));
    }
    std::vector<double> sorted = singleErrs;
    std::sort(sorted.begin(), sorted.end());
    const double worst = sorted.back();
    const double median = 0.5 * (sorted[L / 2 - 1] + sorted[L / 2]);

    EXPECT_LT(pooledErr, worst);
    EXPECT_LT(pooledErr, median + 0.05);  // pooling shrinks the spread
    EXPECT_LT(pooledErr, std::log(1.8));  // within a factor 1.8 of theta*
}

// --- checkpoint v2 / v1 -------------------------------------------------

TEST(MultiLocusCheckpointTest, KillAndResumeIsBitwiseIdentical) {
    const Dataset ds = simulateDataset(3, 6, 1.0, 150, 60);
    MpcgsOptions o = quickOptions(Strategy::MultiChain);
    o.emIterations = 3;

    const MpcgsResult uninterrupted = estimateTheta(ds, o);

    const std::string path = tempPath("multilocus_v2.ckpt");
    MpcgsOptions part1 = o;
    part1.emIterations = 1;  // "crash" after the first EM iteration
    part1.checkpointPath = path;
    part1.checkpointIntervalTicks = 3;
    estimateTheta(ds, part1);

    MpcgsOptions part2 = o;
    part2.checkpointPath = path;
    part2.resume = true;
    const MpcgsResult resumed = estimateTheta(ds, part2);
    expectBitwiseEqual(uninterrupted, resumed);
}

TEST(MultiLocusCheckpointTest, MidSamplingKillAndResumeIsBitwiseIdentical) {
    // Kill a 3-locus SamplerRun in the middle of its sampling phase
    // (snapshot every round) and resume to the full cap: every locus's
    // stream of summaries must match the uninterrupted run's bitwise.
    const Dataset ds = simulateDataset(3, 6, 1.0, 120, 64);
    const LocusLikelihoods liks(ds, "F81");
    const std::size_t burnTicks = 4, killTicks = 9, capTicks = 25;

    const auto makeSamplers = [&] {
        std::vector<std::unique_ptr<Sampler>> samplers;
        for (std::size_t l = 0; l < ds.locusCount(); ++l) {
            SamplerSpec spec;
            spec.strategy = Strategy::MultiChain;
            spec.chains = 3;
            spec.seed = locusStreamSeed(17, l);
            samplers.push_back(makeSampler(spec, liks.at(l), 1.0,
                                           initialGenealogy(ds.locus(l).alignment, 1.0),
                                           nullptr));
        }
        return samplers;
    };
    const auto collect = [](const std::vector<SummarySink>& sinks) {
        std::vector<IntervalSummary> all;
        for (const SummarySink& s : sinks) {
            const auto part = s.chainMajor();
            all.insert(all.end(), part.begin(), part.end());
        }
        return all;
    };

    std::vector<IntervalSummary> full;
    {
        auto samplers = makeSamplers();
        std::vector<SummarySink> sinks(3);
        std::vector<ConvergenceMonitor> monitors(3);
        std::vector<RunSlot> slots(3);
        for (std::size_t l = 0; l < 3; ++l)
            slots[l] = RunSlot{samplers[l].get(), &sinks[l], &monitors[l], "." + std::to_string(l)};
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        SamplerRun run(std::move(slots), cfg);
        run.execute();
        full = collect(sinks);
    }

    const std::string path = tempPath("midphase_v2.ckpt");
    {
        auto samplers = makeSamplers();
        std::vector<SummarySink> sinks(3);
        std::vector<ConvergenceMonitor> monitors(3);
        std::vector<RunSlot> slots(3);
        for (std::size_t l = 0; l < 3; ++l)
            slots[l] = RunSlot{samplers[l].get(), &sinks[l], &monitors[l], "." + std::to_string(l)};
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = killTicks;  // "crash" mid-phase
        cfg.checkpointInterval = 1;
        cfg.checkpoint = [&](const SamplerRun& run) {
            CheckpointWriter w(path);
            run.save(w);
            w.commit();
        };
        SamplerRun run(std::move(slots), cfg);
        run.execute();
    }

    std::vector<IntervalSummary> resumed;
    {
        CheckpointReader progress(path);
        progress.u64();  // burn ticks done
        for (std::size_t l = 0; l < 3; ++l) {
            EXPECT_EQ(progress.u64(), killTicks);  // sampling ticks done
            progress.u32();                        // stopped latch
        }
        auto samplers = makeSamplers();
        std::vector<SummarySink> sinks(3);
        std::vector<ConvergenceMonitor> monitors(3);
        std::vector<RunSlot> slots(3);
        for (std::size_t l = 0; l < 3; ++l)
            slots[l] = RunSlot{samplers[l].get(), &sinks[l], &monitors[l], "." + std::to_string(l)};
        SamplerRun::Config cfg;
        cfg.burnInTicks = burnTicks;
        cfg.sampleTicks = capTicks;
        SamplerRun run(std::move(slots), cfg);
        CheckpointReader r(path);
        run.load(r);
        run.execute();
        resumed = collect(sinks);
    }

    ASSERT_EQ(full.size(), resumed.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_DOUBLE_EQ(full[i].weightedSum, resumed[i].weightedSum);
        EXPECT_EQ(full[i].events, resumed[i].events);
    }
}

TEST(MultiLocusCheckpointTest, ResumeRejectsWrongLocusRoster) {
    const Dataset ds = simulateDataset(2, 6, 1.0, 120, 61);
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    o.checkpointPath = tempPath("roster.ckpt");
    o.checkpointIntervalTicks = 5;
    estimateTheta(ds, o);

    MpcgsOptions resumeOpts = o;
    resumeOpts.resume = true;
    const Dataset other = simulateDataset(3, 6, 1.0, 120, 61);
    EXPECT_THROW(estimateTheta(other, resumeOpts), ConfigError);
}

/// Hand-write a version-1 (pre-multi-locus) iteration-boundary snapshot
/// for the start of a run of `o` on `aln`. `cachedSlot` fills the
/// fingerprint slot of the removed cached serial-MH flag, which that
/// sampler's snapshots set to 1.
void writeV1StartSnapshot(const std::string& path, const MpcgsOptions& o, const Alignment& aln,
                          std::uint32_t cachedSlot) {
    CheckpointWriter w(path, /*version=*/1);
    // v1 fingerprint: options tail is (sequence count, length).
    w.u32(static_cast<std::uint32_t>(o.strategy));
    w.u64(o.seed);
    w.u64(o.samplesPerIteration);
    w.u64(o.burnInFraction1000);
    w.u64(o.gmhProposals);
    w.u64(o.gmhSamplesPerSet);
    w.u64(o.chains);
    w.doubles(o.temperatures);
    w.str(o.substModel);
    w.u32(cachedSlot);
    w.f64(o.theta0);
    w.f64(o.stopRhat);
    w.f64(o.stopEss);
    w.u64(aln.sequenceCount());
    w.u64(aln.length());
    // v1 payload: iteration-boundary snapshot at the very start.
    w.u64(0);        // emIndex
    w.f64(o.theta0); // driving theta
    w.u64(0);        // empty history
    writeGenealogy(w, initialGenealogy(aln, o.theta0));
    w.u32(0);        // phase: iteration boundary
    w.commit();
}

TEST(MultiLocusCheckpointTest, V1SingleLocusSnapshotStillReads) {
    // Synthesize a version-1 (pre-multi-locus) iteration-boundary snapshot
    // for the start of a run and resume from it: the result must be
    // bitwise identical to the uninterrupted run, proving the v1 layout
    // (no locus roster, single genealogy) still loads.
    const Alignment aln = simulateLocus(6, 1.0, 150, 62);
    MpcgsOptions o = quickOptions(Strategy::MultiChain);
    const MpcgsResult uninterrupted = estimateTheta(aln, o);

    const std::string path = tempPath("v1compat.ckpt");
    writeV1StartSnapshot(path, o, aln, /*cachedSlot=*/0);
    {
        CheckpointReader probe(path);
        EXPECT_EQ(probe.version(), 1u);
    }

    MpcgsOptions resumeOpts = o;
    resumeOpts.checkpointPath = path;
    resumeOpts.resume = true;
    const MpcgsResult resumed = estimateTheta(aln, resumeOpts);
    expectBitwiseEqual(uninterrupted, resumed);
}

TEST(MultiLocusCheckpointTest, CachedSerialMhSnapshotIsRefused) {
    // The removed cached serial MH set its fingerprint slot to 1 and stored
    // a data log-likelihood where the serial-MH sampler expects a
    // log-posterior, so its snapshots must not resume; the same snapshot
    // with the slot at 0 resumes.
    const Alignment aln = simulateLocus(6, 1.0, 150, 63);
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    o.checkpointPath = tempPath("cachedmh.ckpt");
    o.resume = true;

    writeV1StartSnapshot(o.checkpointPath, o, aln, /*cachedSlot=*/1);
    try {
        estimateTheta(aln, o);
        FAIL() << "a cached serial-MH snapshot was resumed";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("incompatible run configuration"),
                  std::string::npos)
            << e.what();
    }

    writeV1StartSnapshot(o.checkpointPath, o, aln, /*cachedSlot=*/0);
    MpcgsOptions fresh = o;
    fresh.checkpointPath.clear();
    fresh.resume = false;
    expectBitwiseEqual(estimateTheta(aln, fresh), estimateTheta(aln, o));
}

TEST(MultiLocusCheckpointTest, UnsupportedVersionIsRejected) {
    const std::string path = tempPath("futureversion.ckpt");
    {
        CheckpointWriter w(path, kCheckpointVersion + 1);
        w.u64(0);
        w.commit();
    }
    EXPECT_THROW(CheckpointReader r(path), CheckpointError);
}

// --- option validation (satellite) -------------------------------------

TEST(OptionValidationTest, InvalidOptionsAreRejectedUpFront) {
    MpcgsOptions good;
    EXPECT_NO_THROW(validateOptions(good));

    MpcgsOptions o = good;
    o.temperatures.clear();
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.temperatures = {1.3, 1.0};  // ladder must start at the cold chain
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.chains = 0;
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.gmhSamplesPerSet = 0;
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.gmhProposals = 0;
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.burnInFraction1000 = 1001;
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.theta0 = 0.0;
    EXPECT_THROW(validateOptions(o), ConfigError);

    o = good;
    o.resume = true;  // without a checkpoint path
    EXPECT_THROW(validateOptions(o), ConfigError);
}

TEST(OptionValidationTest, AlgoMismatchedFlagsAreHardRejected) {
    const auto parse = [](std::vector<const char*> argv) {
        argv.insert(argv.begin(), "mpcgs");
        return Options::parse(static_cast<int>(argv.size()), argv.data());
    };

    // Matched flags pass for every mode.
    EXPECT_NO_THROW(validateAlgoFlags(parse({"--strategy", "gmh", "--samples", "10"}), "mcmc"));
    EXPECT_NO_THROW(
        validateAlgoFlags(parse({"--particles", "64", "--ess-threshold", "1.0"}), "smc"));
    EXPECT_NO_THROW(validateAlgoFlags(
        parse({"--pmmh-sigma", "0.3", "--chains", "2", "--particles", "32"}), "pmmh"));
    EXPECT_NO_THROW(
        validateAlgoFlags(parse({"--mig-init", "1.5", "--em", "2"}), "structured"));
    // Mode-agnostic flags are never rejected.
    EXPECT_NO_THROW(validateAlgoFlags(
        parse({"--threads", "4", "--seed", "1", "--checkpoint", "x.mpck"}), "smc"));

    // Mismatches throw ConfigError naming the flag and applicable modes.
    EXPECT_THROW(validateAlgoFlags(parse({"--ess-threshold", "1.0"}), "mcmc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--strategy", "gmh"}), "smc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--samples", "100"}), "smc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--pmmh-sigma", "0.3"}), "smc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--curve", "c.csv"}), "pmmh"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--mig-init", "1.5"}), "mcmc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--set-samples", "8"}), "structured"), ConfigError);
    // Flags only the subcommands read do not apply to a batch run.
    EXPECT_THROW(validateAlgoFlags(parse({"--state", "s.mpck"}), "mcmc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--socket", "x.sock"}), "smc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--host", "127.0.0.1"}), "pmmh"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--port", "9000"}), "structured"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--rejuvenation-sweeps", "3"}), "mcmc"), ConfigError);
    EXPECT_THROW(validateAlgoFlags(parse({"--trace", "t.jsonl"}), "smc"), ConfigError);
    try {
        validateAlgoFlags(parse({"--ess-threshold", "1.0"}), "mcmc");
        FAIL() << "mismatched flag was not rejected";
    } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--ess-threshold"), std::string::npos) << what;
        EXPECT_NE(what.find("smc"), std::string::npos) << what;
        EXPECT_NE(what.find("pmmh"), std::string::npos) << what;
    }
    // The message names every mode that reads the flag, subcommands too.
    const std::pair<const char*, const char*> readers[] = {
        {"--particles", "smc | pmmh | online-init"},
        {"--resampling", "smc | pmmh | online-init | serve"},
        {"--ess-threshold", "smc | pmmh | online-init | serve"}};
    for (const auto& [flag, modes] : readers) {
        try {
            validateAlgoFlags(parse({flag, "1"}), "mcmc");
            ADD_FAILURE() << flag << " was not rejected";
        } catch (const ConfigError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("(applicable: ") + modes + ")"), std::string::npos)
                << what;
        }
    }
}

TEST(OptionValidationTest, EstimateThetaValidatesEvenForUnaffectedStrategies) {
    // The checks are unconditional: a SerialMh run with a broken ladder
    // or zero chains is rejected rather than silently ignored.
    const Alignment aln = simulateLocus(4, 1.0, 80, 63);
    MpcgsOptions o = quickOptions(Strategy::SerialMh);
    o.chains = 0;
    EXPECT_THROW(estimateTheta(aln, o), ConfigError);
    o = quickOptions(Strategy::SerialMh);
    o.temperatures = {2.0};
    EXPECT_THROW(estimateTheta(aln, o), ConfigError);
}

}  // namespace
}  // namespace mpcgs
