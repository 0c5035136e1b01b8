// Golden SMC passes: for every resampling scheme x ESS threshold
// {0, 0.5, 1} x {one rate, discrete gamma}, the bit patterns of logZ, the
// minimum ESS fraction and the sampled log-posterior, the resample count,
// and the sampled genealogy's parent array and internal node times are
// pinned to recorded values. Every row must reproduce bitwise at 1 and 4
// threads in the build that recorded it (recordingBuild(), golden_build.h).
// The filter's state layout may change (how particles share or copy
// partials, how genealogies are stored, when the likelihood items run); the
// values it produces may not.
//
// On a mismatch the test prints the pass's actual row in the table's own
// source form, so a deliberate, documented re-baseline is a paste.
#include <array>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "lik/rate_model.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/smc_sampler.h"
#include "golden_build.h"

namespace mpcgs {
namespace {

constexpr int kTips = 7;
constexpr std::size_t kNodes = 2 * kTips - 1;
constexpr double kPassTheta = 0.02;

struct Golden {
    ResamplingScheme scheme;
    double essThreshold;
    bool gamma;
    std::uint64_t logZ;
    std::uint64_t minEssFraction;
    std::uint64_t sampledLogPosterior;
    std::size_t resamples;
    std::array<int, kNodes> parents;             ///< parent of node id
    std::array<std::uint64_t, kTips - 1> times;  ///< internal nodes n..2n-2
};

using RS = ResamplingScheme;

// Recorded with 64 particles, pass seed 4711 and kPassTheta on the
// alignment built by goldenData(). The low-divergence data and small theta
// keep the weights even enough that ESS threshold 0.5 resamples on only
// three of the five resampling steps, so rows 0.5 and 1.0 differ.
//
// The three likelihood columns were re-recorded once, when the forest
// kernels became the fused strip items (exact power-of-two rescaling,
// vectorized log): every row of the previous table still held to 1e-12
// relative, with identical resample counts, parent arrays and node times.
const Golden kGolden[] = {
    {RS::Multinomial, 0.0, false,
     0xc04fdc545e5c312a, 0x3fb3588c965455e1, 0xc044739ffd959c58, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Multinomial, 0.5, false,
     0xc050410f9bfb6e38, 0x3fd2d3a9546899f8, 0xc043c57a4c6432b4, 3,
     {7, 10, 12, 9, 7, 8, 8, 10, 9, 11, 11, 12, -1},
     {0x3f39c9264c3a4333, 0x3f5e4170e5de6397, 0x3f629d519210f087,
      0x3f672ebb988c29cf, 0x3f794c9df1ef6d14, 0x3f80cdfabed1e854}},
    {RS::Multinomial, 1.0, false,
     0xc0503d3b8cdb6bd3, 0x3fd8d522998c62ff, 0xc044b1892f440f0a, 5,
     {8, 9, 12, 7, 7, 9, 10, 8, 11, 10, 11, 12, -1},
     {0x3f50f3f57fc531b4, 0x3f6299bcccbee912, 0x3f64d8610f432694,
      0x3f70d0e28007a9d4, 0x3f8089bd09e692e6, 0x3f8c1d353b349310}},
    {RS::Stratified, 0.0, false,
     0xc04fdc545e5c312a, 0x3fb3588c965455e1, 0xc044739ffd959c58, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Stratified, 0.5, false,
     0xc0503eae40fc2a62, 0x3fd2d3a9546899f8, 0xc04225ec27989444, 3,
     {7, 10, 12, 7, 8, 9, 8, 9, 10, 11, 11, 12, -1},
     {0x3f292647574a44b2, 0x3f2ec1a578d3f872, 0x3f3104bf096858c6,
      0x3f624b281c1d6b63, 0x3f62f803d957c5ec, 0x3f7a95ff3f63bf6a}},
    {RS::Stratified, 1.0, false,
     0xc04ff6db23fabe5c, 0x3fa2f6e4dbc9dece, 0xc043c84ab65a3a52, 5,
     {11, 7, 11, 8, 7, 9, 10, 8, 9, 10, 12, 12, -1},
     {0x3f3f9dda5074928f, 0x3f4b393d805f4ace, 0x3f4e960f2eb80f9d,
      0x3f646ee7bc7a30fa, 0x3f7020a10c5555a8, 0x3f8a7706d339c549}},
    {RS::Systematic, 0.0, false,
     0xc04fdc545e5c312a, 0x3fb3588c965455e1, 0xc044739ffd959c58, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Systematic, 0.5, false,
     0xc0503ef7409557d3, 0x3fd2d3a9546899f8, 0xc04544906b5bf9bc, 3,
     {8, 7, 12, 7, 10, 9, 9, 8, 10, 11, 11, 12, -1},
     {0x3f58fe847195a774, 0x3f64a353906f9b6e, 0x3f657a87fc05cca2,
      0x3f710f686ebe17af, 0x3f7d5a33a4cdee92, 0x3f985b42fa02e008}},
    {RS::Systematic, 1.0, false,
     0xc0503c2da961fbac, 0x3fd8da6e58ce5f74, 0xc0443ce3c3c0b7ff, 5,
     {8, 9, 12, 7, 7, 8, 11, 9, 10, 10, 11, 12, -1},
     {0x3f3ad2b01192e509, 0x3f5ea90a65fe41e6, 0x3f67e252786091a2,
      0x3f73ab0a46acb3aa, 0x3f742a4a79a4cfe9, 0x3f906df5afc076d7}},
    {RS::Residual, 0.0, false,
     0xc04fdc545e5c312a, 0x3fb3588c965455e1, 0xc044739ffd959c58, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Residual, 0.5, false,
     0xc050401d3aa8e1e4, 0x3fd2d3a9546899f8, 0xc04321ebe6631097, 3,
     {10, 7, 12, 8, 7, 11, 8, 9, 9, 10, 11, 12, -1},
     {0x3f0d2053bfd609d8, 0x3f45e5497e2baf96, 0x3f5b1f39ca9c83b7,
      0x3f60a5255b13a658, 0x3f7a98c5b96c8bbc, 0x3f8567b1b9916443}},
    {RS::Residual, 1.0, false,
     0xc04fe43ee6182004, 0x3fa10ab0c34f9696, 0xc0443fbca038a4a8, 5,
     {8, 11, 12, 8, 7, 10, 7, 9, 9, 10, 11, 12, -1},
     {0x3eee9d2ab9c89b31, 0x3f51b1b765f363ab, 0x3f521ab27932face,
      0x3f661ee4c9feeff8, 0x3f814f68230fc073, 0x3f9cc28a1f7ef570}},
    {RS::Multinomial, 0.0, true,
     0xc04fdc8f71ddeeb9, 0x3fb35e8bc3cb35a5, 0xc044750c0429e558, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Multinomial, 0.5, true,
     0xc05040b6b0afc418, 0x3fd2d4291e35fe12, 0xc043c6a298b348a5, 3,
     {7, 10, 12, 9, 7, 8, 8, 10, 9, 11, 11, 12, -1},
     {0x3f39c9264c3a4333, 0x3f5e4170e5de6397, 0x3f629d519210f087,
      0x3f672ebb988c29cf, 0x3f794c9df1ef6d14, 0x3f80cdfabed1e854}},
    {RS::Multinomial, 1.0, true,
     0xc0503ce98cbe798d, 0x3fd8d7c7e61e9c91, 0xc044b21f22c5782f, 5,
     {8, 9, 12, 7, 7, 9, 10, 8, 11, 10, 11, 12, -1},
     {0x3f50f3f57fc531b4, 0x3f6299bcccbee912, 0x3f64d8610f432694,
      0x3f70d0e28007a9d4, 0x3f8089bd09e692e6, 0x3f8c1d353b349310}},
    {RS::Stratified, 0.0, true,
     0xc04fdc8f71ddeeb9, 0x3fb35e8bc3cb35a5, 0xc044750c0429e558, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Stratified, 0.5, true,
     0xc0503e753544c621, 0x3fd2d4291e35fe12, 0xc04226caa7c7ba34, 3,
     {7, 10, 12, 7, 8, 9, 8, 9, 10, 11, 11, 12, -1},
     {0x3f292647574a44b2, 0x3f2ec1a578d3f872, 0x3f3104bf096858c6,
      0x3f624b281c1d6b63, 0x3f62f803d957c5ec, 0x3f7a95ff3f63bf6a}},
    {RS::Stratified, 1.0, true,
     0xc04fde7ec100a315, 0x3f9fd484e1154580, 0xc043cd39900cd900, 5,
     {12, 7, 11, 8, 7, 9, 10, 8, 9, 10, 11, 12, -1},
     {0x3f3f9dda5074928f, 0x3f4b393d805f4ace, 0x3f4e960f2eb80f9d,
      0x3f646ee7bc7a30fa, 0x3f70f543f28594a2, 0x3f8ae1584651e4c6}},
    {RS::Systematic, 0.0, true,
     0xc04fdc8f71ddeeb9, 0x3fb35e8bc3cb35a5, 0xc044750c0429e558, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Systematic, 0.5, true,
     0xc0503ebc781b89cd, 0x3fd2d4291e35fe12, 0xc04542d2fe956168, 3,
     {8, 7, 12, 7, 10, 9, 9, 8, 10, 11, 11, 12, -1},
     {0x3f58fe847195a774, 0x3f64a353906f9b6e, 0x3f657a87fc05cca2,
      0x3f710f686ebe17af, 0x3f7d5a33a4cdee92, 0x3f985b42fa02e008}},
    {RS::Systematic, 1.0, true,
     0xc0503bfd9462ff87, 0x3fd8dc3cbda3e0e5, 0xc0443d12797ccdd2, 5,
     {8, 9, 12, 7, 7, 8, 11, 9, 10, 10, 11, 12, -1},
     {0x3f3ad2b01192e509, 0x3f5ea90a65fe41e6, 0x3f67e252786091a2,
      0x3f73ab0a46acb3aa, 0x3f742a4a79a4cfe9, 0x3f906df5afc076d7}},
    {RS::Residual, 0.0, true,
     0xc04fdc8f71ddeeb9, 0x3fb35e8bc3cb35a5, 0xc044750c0429e558, 0,
     {11, 8, 8, 7, 10, 7, 9, 10, 9, 11, 12, 12, -1},
     {0x3f297624688184db, 0x3f4267568c312445, 0x3f48db1dc6abb0e1,
      0x3f66e42473a9a0e0, 0x3f7b5beebe36a9bc, 0x3f7cb3ba7ed39280}},
    {RS::Residual, 0.5, true,
     0xc0503fd4ab069788, 0x3fd2d4291e35fe12, 0xc04322e2becde0f9, 3,
     {10, 7, 12, 8, 7, 11, 8, 9, 9, 10, 11, 12, -1},
     {0x3f0d2053bfd609d8, 0x3f45e5497e2baf96, 0x3f5b1f39ca9c83b7,
      0x3f60a5255b13a658, 0x3f7a98c5b96c8bbc, 0x3f8567b1b9916443}},
    {RS::Residual, 1.0, true,
     0xc0503b5f530388a3, 0x3fd8cf0d1a38ae1e, 0xc0443d18b9ed0eb8, 5,
     {8, 11, 12, 8, 7, 10, 7, 9, 9, 10, 11, 12, -1},
     {0x3eee9d2ab9c89b31, 0x3f51b1b765f363ab, 0x3f521ab27932face,
      0x3f661ee4c9feeff8, 0x3f814f68230fc073, 0x3f9cc28a1f7ef570}},
};

Alignment goldenData() {
    Mt19937 rng(23);
    const Genealogy g = simulateCoalescent(kTips, 0.01, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {40, 1.0}, rng);
}

const char* schemeToken(ResamplingScheme s) {
    switch (s) {
        case RS::Multinomial:
            return "RS::Multinomial";
        case RS::Stratified:
            return "RS::Stratified";
        case RS::Systematic:
            return "RS::Systematic";
        case RS::Residual:
            return "RS::Residual";
    }
    return "?";
}

/// The row `res` would need, in the source form of kGolden.
std::string formatRow(ResamplingScheme scheme, double threshold, bool gamma,
                      const SmcPassResult& res) {
    char buf[128];
    std::string out = "    {";
    out += schemeToken(scheme);
    std::snprintf(buf, sizeof buf, ", %.1f, %s,\n     0x%016" PRIx64 ", 0x%016" PRIx64
                                   ", 0x%016" PRIx64 ", %zu,\n     {",
                  threshold, gamma ? "true" : "false",
                  std::bit_cast<std::uint64_t>(res.logZ),
                  std::bit_cast<std::uint64_t>(res.minEssFraction),
                  std::bit_cast<std::uint64_t>(res.sampledLogPosterior), res.resamples);
    out += buf;
    for (NodeId id = 0; id < res.sampled.nodeCount(); ++id) {
        std::snprintf(buf, sizeof buf, "%s%d", id ? ", " : "", res.sampled.node(id).parent);
        out += buf;
    }
    out += "},\n     {";
    for (NodeId id = kTips; id < res.sampled.nodeCount(); ++id) {
        const char* sep = id == kTips ? "" : id == kTips + 3 ? ",\n      " : ", ";
        std::snprintf(buf, sizeof buf, "%s0x%016" PRIx64, sep,
                      std::bit_cast<std::uint64_t>(res.sampled.node(id).time));
        out += buf;
    }
    return out + "}},";
}

const Golden* findGolden(ResamplingScheme scheme, double threshold, bool gamma) {
    for (const Golden& g : kGolden)
        if (g.scheme == scheme && g.essThreshold == threshold && g.gamma == gamma)
            return &g;
    return nullptr;
}

/// Outside the recording build (golden_build.h) the likelihood-derived
/// values are held to 1e-12 relative instead of bitwise. Resample counts,
/// topology and node times stay exact in every build (checked under GCC 12
/// Debug without -march=native too).
void expectLikelihoodValue(double got, std::uint64_t wantBits, const char* what) {
    const double want = std::bit_cast<double>(wantBits);
    if (recordingBuild())
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got), wantBits) << what;
    else
        EXPECT_NEAR(got, want, 1e-12 * std::abs(want)) << what;
}

/// Compare one pass with its golden row; on any mismatch the failure
/// message carries the row the pass would need.
void expectGolden(const SmcPassResult& res, ResamplingScheme scheme, double threshold,
                  bool gamma) {
    SCOPED_TRACE("actual row:\n" + formatRow(scheme, threshold, gamma, res));
    const Golden* want = findGolden(scheme, threshold, gamma);
    ASSERT_NE(want, nullptr) << "no golden row";
    expectLikelihoodValue(res.logZ, want->logZ, "logZ");
    expectLikelihoodValue(res.minEssFraction, want->minEssFraction, "minEssFraction");
    expectLikelihoodValue(res.sampledLogPosterior, want->sampledLogPosterior,
                          "sampledLogPosterior");
    EXPECT_EQ(res.resamples, want->resamples);
    ASSERT_EQ(res.sampled.nodeCount(), static_cast<int>(kNodes));
    for (NodeId id = 0; id < res.sampled.nodeCount(); ++id) {
        const std::size_t i = static_cast<std::size_t>(id);
        EXPECT_EQ(res.sampled.node(id).parent, want->parents[i]) << "node " << id;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.sampled.node(id).time),
                  id < kTips ? 0u : want->times[i - kTips])
            << "node " << id;
    }
}

TEST(SmcGoldenTest, PassesReproduceRecordedBitPatterns) {
    const Alignment aln = goldenData();
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood plain(aln, model);
    const DataLikelihood gammaLik(aln, model, RateCategories::discreteGamma(0.7, 4));
    ThreadPool serial(1);
    ThreadPool wide(4);

    for (const bool gamma : {false, true})
        for (const RS scheme :
             {RS::Multinomial, RS::Stratified, RS::Systematic, RS::Residual})
            for (const double threshold : {0.0, 0.5, 1.0})
                for (ThreadPool* pool : {&serial, &wide}) {
                    SCOPED_TRACE(std::to_string(pool->size()) + " threads");
                    SmcOptions opts;
                    opts.particles = 64;
                    opts.scheme = scheme;
                    opts.essThreshold = threshold;
                    expectGolden(
                        runSmcPass(gamma ? gammaLik : plain, kPassTheta, opts, 4711, pool),
                        scheme, threshold, gamma);
                }
}

}  // namespace
}  // namespace mpcgs
