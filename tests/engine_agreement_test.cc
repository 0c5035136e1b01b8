// Scalar-vs-vectorized agreement suite: the pattern-major engine (both the
// stateless full-recomputation path and the arena paths) must reproduce
// the original one-pattern-at-a-time scalar pruning to 1e-10, across
// random genealogies/alignments, pattern counts that end in a partial
// 8-pattern tile, rescaling-triggering deep trees, unknown-tip
// marginalization, and rate heterogeneity — and the
// region-scored MH chain must make bit-identical accept/reject decisions.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/prior.h"
#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "core/recoalesce.h"
#include "lik/felsenstein.h"
#include "mcmc/mh.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"
#include "reference_likelihood.h"

namespace mpcgs {
namespace {

/// Random dataset with a sprinkling of unknown sites (every `nEvery`-th
/// site of every `sEvery`-th sequence becomes N).
Alignment randomData(int n, std::size_t length, unsigned seed, std::size_t nEvery = 0,
                     std::size_t sEvery = 3) {
    Mt19937 rng(seed);
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    Alignment aln = simulateSequences(truth, *gen, {length, 1.0}, rng);
    if (nEvery == 0) return aln;
    std::vector<Sequence> seqs;
    for (std::size_t s = 0; s < aln.sequenceCount(); ++s) {
        std::string chars = aln.sequence(s).toString();
        if (s % sEvery == 0)
            for (std::size_t i = 0; i < chars.size(); i += nEvery) chars[i] = 'N';
        seqs.push_back(Sequence::fromString(aln.sequence(s).name(), chars));
    }
    return Alignment(std::move(seqs));
}

TEST(EngineAgreement, RandomGenealogiesMatchScalarReference) {
    for (const unsigned seed : {11u, 12u, 13u, 14u}) {
        Mt19937 rng(seed);
        const int n = 4 + static_cast<int>(seed % 3) * 6;  // 4..16 tips
        const Alignment data = randomData(n, 300, seed, /*nEvery=*/7);
        const auto model = makeHky85(2.0, data.baseFrequencies());
        const DataLikelihood lik(data, *model);
        for (int rep = 0; rep < 5; ++rep) {
            const Genealogy g = simulateCoalescent(n, 1.0, rng);
            const double ref = referenceLogLikelihood(lik, g);
            EXPECT_NEAR(lik.logLikelihood(g), ref, 1e-10) << "seed " << seed << " rep " << rep;
        }
    }
}

/// `tips` sequences whose columns spell 0..P-1 in base 4 (tip s holds
/// digit s), so the alignment compresses to exactly P patterns.
Alignment base4Columns(std::size_t P, int tips) {
    std::vector<Sequence> seqs;
    for (int s = 0; s < tips; ++s) {
        std::string chars;
        for (std::size_t j = 0; j < P; ++j) chars += "ACGT"[(j >> (2 * s)) & 3];
        seqs.push_back(Sequence::fromString("s" + std::to_string(s), chars));
    }
    return Alignment(std::move(seqs));
}

TEST(EngineAgreement, PartialTilesMatchScalarReference) {
    // A lone partial tile (1, 7), a full tile plus one pattern (9) and the
    // smc_theta shape (255), with one rate and with four gamma categories.
    for (const std::size_t P : {1u, 7u, 9u, 255u}) {
        const Alignment data = base4Columns(P, 8);
        const auto model = makeHky85(2.0, data.baseFrequencies());
        for (const int C : {1, 4}) {
            const DataLikelihood lik(data, *model,
                                     C == 1 ? RateCategories::uniformRate()
                                            : RateCategories::discreteGamma(0.6, C));
            ASSERT_EQ(lik.patternCount(), P);
            Mt19937 rng(static_cast<std::uint32_t>(P * 10 + C));
            for (int rep = 0; rep < 3; ++rep) {
                const Genealogy g = simulateCoalescent(8, 1.0, rng);
                const double ref = referenceLogLikelihood(lik, g);
                EXPECT_NEAR(lik.logLikelihood(g), ref, 1e-10)
                    << "P " << P << " C " << C << " rep " << rep;
                PartialsBuffer arena;
                EXPECT_NEAR(lik.engine().evaluate(g, arena), ref, 1e-10)
                    << "P " << P << " C " << C << " rep " << rep;
            }
        }
    }
}

TEST(EngineAgreement, UncompressedPatternsMatchToo) {
    Mt19937 rng(21);
    const Alignment data = randomData(8, 200, 21, /*nEvery=*/5);
    const auto model = makeF84(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::uniformRate(), /*compress=*/false);
    const Genealogy g = simulateCoalescent(8, 1.0, rng);
    EXPECT_NEAR(lik.logLikelihood(g), referenceLogLikelihood(lik, g), 1e-10);
}

TEST(EngineAgreement, DeepCaterpillarTriggersRescaling) {
    // 48 levels of pruning with long branches: the periodic K-level
    // rescaling must agree with the scalar path's per-node threshold
    // rescaling (both are exact reparameterizations).
    const int n = 48;
    Genealogy g(n);
    NodeId prev = 0;
    for (int i = 0; i < n - 1; ++i) {
        const NodeId internal = n + i;
        g.node(internal).time = 3.0 * (i + 1);
        g.link(internal, prev);
        g.link(internal, i + 1);
        prev = internal;
    }
    g.setRoot(prev);
    g.validate();

    std::vector<Sequence> seqs;
    for (int i = 0; i < n; ++i)
        seqs.push_back(Sequence::fromString("s" + std::to_string(i),
                                            i % 3 ? "ACGTACGT" : "TGCANGCA"));
    const Alignment aln{std::move(seqs)};
    const F81Model model(kUniformFreqs, 1.0);
    const DataLikelihood lik(aln, model);
    const double ref = referenceLogLikelihood(lik, g);
    ASSERT_TRUE(std::isfinite(ref));
    EXPECT_NEAR(lik.logLikelihood(g), ref, 1e-10);

    PartialsBuffer arena;
    EXPECT_NEAR(lik.engine().evaluate(g, arena), ref, 1e-10);
}

TEST(EngineAgreement, GammaCategoriesMatchScalarReference) {
    Mt19937 rng(31);
    const Alignment data = randomData(10, 240, 31, /*nEvery=*/9);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model, RateCategories::discreteGamma(0.6, 4));
    for (int rep = 0; rep < 3; ++rep) {
        const Genealogy g = simulateCoalescent(10, 1.0, rng);
        EXPECT_NEAR(lik.logLikelihood(g), referenceLogLikelihood(lik, g), 1e-10) << rep;
    }
}

TEST(EngineAgreement, CachedPathMatchesAcrossDirtyUpdates) {
    Mt19937 rng(41);
    Genealogy g = simulateCoalescent(12, 1.0, rng);
    const Alignment data = randomData(12, 300, 41, /*nEvery=*/6);
    const auto model = makeF84(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    PartialsBuffer arena;
    EXPECT_NEAR(lik.engine().evaluate(g, arena), referenceLogLikelihood(lik, g), 1e-10);

    // A chain of topology-changing proposals, each verified against a
    // fresh scalar evaluation of the proposed state and, bitwise, against
    // a full engine evaluation.
    for (int i = 0; i < 40; ++i) {
        auto prop = proposeRecoalesce(g, 1.0, rng);
        const std::vector<NodeId> seeds{prop.target, prop.rebuiltParent, g.sibling(prop.target),
                                        prop.state.sibling(prop.target)};
        const double incremental = lik.engine().evaluateDirty(prop.state, seeds, arena);
        EXPECT_NEAR(incremental, referenceLogLikelihood(lik, prop.state), 1e-9) << "step " << i;
        EXPECT_EQ(incremental, lik.logLikelihood(prop.state)) << "step " << i;
        g = std::move(prop.state);
    }
}

TEST(EngineAgreement, PooledEvaluationIsBitwiseIdenticalToSerial) {
    // The pattern-block partition depends only on the problem shape, so
    // parallel evaluation must be bit-identical to serial, not just close.
    Mt19937 rng(51);
    const Genealogy g = simulateCoalescent(14, 1.0, rng);
    const Alignment data = randomData(14, 500, 51);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    ThreadPool pool(5);

    EXPECT_EQ(lik.logLikelihood(g), lik.logLikelihood(g, &pool));

    PartialsBuffer serial;
    PartialsBuffer pooled;
    EXPECT_EQ(lik.engine().evaluate(g, serial), lik.engine().evaluate(g, pooled, &pool));
}

TEST(EngineAgreement, CachedSamplerAcceptSequenceMatchesScalarReplay) {
    // The MH chain (region-scored, vectorized) against a hand-rolled
    // replica driven by the same RNG stream but evaluating every state with
    // the scalar reference path: every accept/reject decision must match.
    Mt19937 rng(61);
    const int n = 10;
    const double theta = 1.0;
    const Alignment data = randomData(n, 200, 61);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    Genealogy init = simulateCoalescent(n, theta, rng);
    init.setTipNames(data.names());

    const std::uint64_t seed = 977;
    const MhGenealogyProblem problem(lik, theta);
    MhChain<MhGenealogyProblem> sampler(problem, init, seed);

    Mt19937 replayRng(static_cast<std::uint32_t>(seed ^ (seed >> 32)));
    Genealogy cur = init;
    double curLik = referenceLogLikelihood(lik, cur);

    for (int i = 0; i < 300; ++i) {
        auto prop = proposeRecoalesce(cur, theta, replayRng);
        const double newLik = referenceLogLikelihood(lik, prop.state);
        const double logR = (newLik + logCoalescentPrior(prop.state, theta)) -
                            (curLik + logCoalescentPrior(cur, theta)) + prop.logReverse -
                            prop.logForward;
        const bool refAccept = logR >= 0.0 || std::log(replayRng.uniformPos()) < logR;
        const bool accept = sampler.step();
        ASSERT_EQ(accept, refAccept) << "diverged at step " << i;
        if (refAccept) {
            cur = std::move(prop.state);
            curLik = newLik;
        }
    }
    EXPECT_NEAR(sampler.currentLogPosterior(), curLik + logCoalescentPrior(cur, theta), 1e-8);
    EXPECT_EQ(sampler.current(), cur);
}

TEST(EngineAgreement, DirtyWithoutEvaluateStillThrows) {
    Mt19937 rng(71);
    const Genealogy g = simulateCoalescent(5, 1.0, rng);
    const Alignment data = randomData(5, 60, 71);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    PartialsBuffer arena;
    const NodeId dirty[] = {0};
    EXPECT_THROW(lik.engine().evaluateDirty(g, dirty, arena), InvariantError);
}

}  // namespace
}  // namespace mpcgs
