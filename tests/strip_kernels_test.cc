// Strip kernels (lik/pruning_kernels.h): the vectorizable log against
// std::log, the exactness of the power-of-two rescale in the engine strips
// and the partial-forest items, the shared matrix of bit-equal branch
// lengths, the -inf path of a zero site, and pad lanes that reach no
// scale, site or fold. Raw strips are built through stripIndex.
#include "lik/pruning_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "lik/felsenstein.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"

namespace mpcgs {
namespace {

/// Distance in representable doubles between two finite values.
std::uint64_t ulpDistance(double a, double b) {
    const auto ordered = [](double x) {
        const auto i = std::bit_cast<std::int64_t>(x);
        return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
    };
    const std::int64_t d = ordered(a) - ordered(b);
    return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

TEST(StripKernelsTest, FastLogIsWithinTwoUlpOfStdLog) {
    Mt19937 rng(2024);
    constexpr int kDraws = 10'000'000;
    std::uint64_t worst = 0;
    double worstAt = 0.0;
    int outsideDomain = 0;
    for (int i = 0; i < kDraws; ++i) {
        double x;
        if (i % 2 == 0) {
            // The whole positive normal range: any exponent, any mantissa.
            const std::uint64_t exponent = 1 + rng.below(2046);
            const std::uint64_t mantissa = rng.nextU64() & ((1ull << 52) - 1);
            x = std::bit_cast<double>(exponent << 52 | mantissa);
        } else {
            // Where site likelihoods of rescaled partials live.
            x = 1e-3 + (2.0 - 1e-3) * rng.uniform01();
        }
        outsideDomain += !isPositiveNormal(x);
        const std::uint64_t d = ulpDistance(logPositiveNormal(x), std::log(x));
        if (d > worst) {
            worst = d;
            worstAt = x;
        }
    }
    EXPECT_EQ(outsideDomain, 0);
    EXPECT_LE(worst, 2u) << "at x = " << worstAt;
}

TEST(StripKernelsTest, FastLogIsExactlyZeroAtOneAndKnowsItsDomain) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(logPositiveNormal(1.0)), 0u);
    for (const double x : {std::numeric_limits<double>::min(), 1.0, 2.0,
                           std::numeric_limits<double>::max()})
        EXPECT_TRUE(isPositiveNormal(x)) << x;
    for (const double x : {0.0, -0.0, std::numeric_limits<double>::denorm_min(), -1.0,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
        EXPECT_FALSE(isPositiveNormal(x)) << x;
}

TEST(StripKernelsTest, EngineStripsRescaleExactlyAndFoldZeroSitesToMinusInfinity) {
    // Patterns spread over many binades, a zero pattern and a subnormal one.
    // The last tile's pad lanes hold NaN, so a pad that reached a scale or
    // a site would show.
    constexpr std::size_t n = 37;
    Mt19937 rng(91);
    std::vector<double> raw(stripLength(n), std::numeric_limits<double>::quiet_NaN()), part,
        scale(n), carried(n);
    for (std::size_t p = 0; p < n; ++p) {
        const double binade = std::ldexp(1.0, -static_cast<int>(rng.below(900)));
        for (std::size_t x = 0; x < 4; ++x) raw[stripIndex(p, x)] = binade * rng.uniform01();
        carried[p] = scale[p] = -3.0 * rng.uniform01();
    }
    for (std::size_t x = 0; x < 4; ++x) {
        raw[stripIndex(0, x)] = 0.0;
        raw[stripIndex(1, x)] =
            std::numeric_limits<double>::denorm_min() * static_cast<double>(4 * (x + 1));
    }
    part = raw;
    // A scale entry past the strip's patterns: no pad lane may reach it.
    scale.push_back(5.0);
    rescaleStrip(part.data(), scale.data(), n);
    EXPECT_EQ(scale[n], 5.0);
    for (std::size_t p = 2; p < n; ++p) {
        double m = raw[stripIndex(p, 0)];
        for (std::size_t x = 1; x < 4; ++x) m = std::max(m, raw[stripIndex(p, x)]);
        const int e = std::ilogb(m);
        for (std::size_t x = 0; x < 4; ++x)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(std::ldexp(part[stripIndex(p, x)], e)),
                      std::bit_cast<std::uint64_t>(raw[stripIndex(p, x)]))
                << "pattern " << p;
        EXPECT_DOUBLE_EQ(scale[p], carried[p] + e * std::numbers::ln2) << "pattern " << p;
    }
    // Zero and subnormal patterns keep their values and their scale.
    for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t x = 0; x < 4; ++x)
            EXPECT_EQ(part[stripIndex(p, x)], raw[stripIndex(p, x)]);
    EXPECT_EQ(scale[0], carried[0]);
    EXPECT_EQ(scale[1], carried[1]);

    // One site past the strip's patterns: no pad lane may reach it.
    std::vector<double> site(n + 1, 7.0);
    rootLogStrip(part.data(), scale.data(), kUniformFreqs, site.data(), n);
    EXPECT_EQ(site[n], 7.0);
    EXPECT_EQ(site[0], -std::numeric_limits<double>::infinity());
    // Quarters of multiples of four subnormal units: the dot is exact.
    EXPECT_EQ(site[1], std::log(10 * std::numeric_limits<double>::denorm_min()) + scale[1]);
    for (std::size_t p = 2; p < n; ++p) {
        const double dot = 0.25 * part[stripIndex(p, 0)] + 0.25 * part[stripIndex(p, 1)] +
                           0.25 * part[stripIndex(p, 2)] + 0.25 * part[stripIndex(p, 3)];
        const double want = std::log(dot) + scale[p];
        EXPECT_NEAR(site[p], want, 1e-13 * std::abs(want)) << "pattern " << p;
    }
}

TEST(StripKernelsTest, StripIndexTilesEightPatternsStateMajor) {
    EXPECT_EQ(stripIndex(0, 0), 0u);
    EXPECT_EQ(stripIndex(7, 0), 7u);
    EXPECT_EQ(stripIndex(0, 1), 8u);
    EXPECT_EQ(stripIndex(5, 3), 29u);
    EXPECT_EQ(stripIndex(8, 0), 32u);
    EXPECT_EQ(stripIndex(13, 2), 32u + 16u + 5u);
    EXPECT_EQ(stripLength(1), 32u);
    EXPECT_EQ(stripLength(8), 32u);
    EXPECT_EQ(stripLength(9), 64u);
    EXPECT_EQ(stripLength(255), 1024u);
    // Every (pattern, state) of a strip has its own slot inside it.
    std::vector<int> seen(stripLength(21), 0);
    for (std::size_t p = 0; p < 24; ++p)
        for (std::size_t x = 0; x < 4; ++x) ++seen[stripIndex(p, x)];
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<std::ptrdiff_t>(seen.size()));
}

TEST(StripKernelsTest, TipStripsIndicateStatesAndFillPadLanesWithOne) {
    // Three sequences over 11 patterns; sequence 1 holds every code.
    constexpr std::size_t nSeq = 3, n = 11;
    std::vector<NucCode> codes(n * nSeq, 0);
    for (std::size_t p = 0; p < n; ++p) codes[p * nSeq + 1] = static_cast<NucCode>(p % 5);
    std::vector<double> strip(stripLength(n), -1.0);
    fillTipStrip(codes.data(), nSeq, 1, strip.data(), n);
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t x = 0; x < 4; ++x)
            EXPECT_EQ(strip[stripIndex(p, x)], p % 5 == 4 || p % 5 == x ? 1.0 : 0.0)
                << "pattern " << p << " state " << x;
    for (std::size_t p = n; p < 16; ++p)
        for (std::size_t x = 0; x < 4; ++x) EXPECT_EQ(strip[stripIndex(p, x)], 1.0) << p;
}

TEST(StripKernelsTest, ForestPadLanesReachNoScaleAndNoFold) {
    // Four tips whose columns spell 0..8 in base 4: nine patterns, one full
    // tile and one pattern of a second, under four gamma categories.
    std::vector<Sequence> seqs;
    for (int s = 0; s < 4; ++s) {
        std::string chars;
        for (std::size_t j = 0; j < 9; ++j) chars += "ACGT"[(j >> (2 * s)) & 3];
        seqs.push_back(Sequence::fromString("s" + std::to_string(s), chars));
    }
    const Alignment aln(std::move(seqs));
    const F81Model model(aln.baseFrequencies());
    const DataLikelihood lik(aln, model, RateCategories::discreteGamma(0.5, 4));
    const ForestKernelData k{lik.patterns(), lik.model(), lik.rateCategories(),
                             lik.rootFreqs()};
    const std::size_t P = lik.patternCount(), C = lik.rateCategories().count();
    const std::size_t S = stripLength(P);
    ASSERT_EQ(P, 9u);

    // Tip slots fill their pad lanes with 1.0 and write no scale past P.
    std::vector<double> a(C * S), b(C * S), sa(P + 1, 5.0), sb(P + 1, 5.0);
    double tipLogL = 0.0;
    forestTipItem(k, 0, a.data(), sa.data(), &tipLogL);
    forestTipItem(k, 1, b.data(), sb.data(), &tipLogL);
    EXPECT_EQ(sa[P], 5.0);
    EXPECT_EQ(sb[P], 5.0);
    // The same children with NaN in every pad lane.
    std::vector<double> a2 = a, b2 = b;
    for (std::size_t c = 0; c < C; ++c)
        for (std::size_t p = P; p < roundUpTo(P, kTilePatterns); ++p)
            for (std::size_t x = 0; x < 4; ++x) {
                EXPECT_EQ(a[c * S + stripIndex(p, x)], 1.0);
                a2[c * S + stripIndex(p, x)] = std::numeric_limits<double>::quiet_NaN();
                b2[c * S + stripIndex(p, x)] = std::numeric_limits<double>::quiet_NaN();
            }

    // Every scale, partial and root factor of the real patterns keeps its
    // bits, and the scale entry past P is never written.
    std::vector<double> out(C * S), out2(C * S), so(P + 1, 7.0), so2(P + 1, 7.0);
    double rootLogL = 0.0, rootLogL2 = 0.0;
    forestCombineItem(k, a.data(), sa.data(), 0.2, b.data(), sb.data(), 0.3, out.data(),
                      so.data(), &rootLogL);
    forestCombineItem(k, a2.data(), sa.data(), 0.2, b2.data(), sb.data(), 0.3, out2.data(),
                      so2.data(), &rootLogL2);
    EXPECT_TRUE(std::isfinite(rootLogL));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rootLogL), std::bit_cast<std::uint64_t>(rootLogL2));
    EXPECT_EQ(so[P], 7.0);
    EXPECT_EQ(so2[P], 7.0);
    for (std::size_t p = 0; p < P; ++p) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(so[p]), std::bit_cast<std::uint64_t>(so2[p]))
            << "pattern " << p;
        for (std::size_t c = 0; c < C; ++c)
            for (std::size_t x = 0; x < 4; ++x)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(out[c * S + stripIndex(p, x)]),
                          std::bit_cast<std::uint64_t>(out2[c * S + stripIndex(p, x)]))
                    << "pattern " << p;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(forestRootLogLik(k, out2.data(), so2.data())),
              std::bit_cast<std::uint64_t>(rootLogL));
}

/// A small alignment under discrete-gamma rates, and a pair of child slots
/// whose patterns span many binades (as deep subtrees' partials do).
class ForestItemTest : public ::testing::Test {
  protected:
    ForestItemTest()
        : aln_(makeAlignment()),
          model_(aln_.baseFrequencies()),
          lik_(aln_, model_, RateCategories::discreteGamma(0.5, 4)),
          k_{lik_.patterns(), lik_.model(), lik_.rateCategories(), lik_.rootFreqs()},
          P_(lik_.patternCount()),
          C_(lik_.rateCategories().count()),
          S_(stripLength(P_)) {
        Mt19937 rng(77);
        for (std::vector<double>* v : {&a_, &b_}) {
            v->assign(C_ * S_, 1.0);
            for (std::size_t p = 0; p < P_; ++p) {
                const double binade = std::ldexp(1.0, -static_cast<int>(rng.below(60)));
                for (std::size_t c = 0; c < C_; ++c)
                    for (std::size_t x = 0; x < 4; ++x)
                        (*v)[at(c, p, x)] = binade * rng.uniform01();
            }
        }
        for (std::vector<double>* s : {&sa_, &sb_}) {
            s->resize(P_);
            for (double& x : *s) x = -3.0 * rng.uniform01();
        }
    }

    static Alignment makeAlignment() {
        Mt19937 rng(5);
        const Genealogy g = simulateCoalescent(6, 1.0, rng);
        const auto gen = makeF84(2.0, kUniformFreqs);
        return simulateSequences(g, *gen, {300, 1.0}, rng);
    }

    /// Where category c's pattern p, state x lives in a slot.
    std::size_t at(std::size_t c, std::size_t p, std::size_t x) const {
        return c * S_ + stripIndex(p, x);
    }

    Alignment aln_;
    F81Model model_;
    DataLikelihood lik_;
    ForestKernelData k_;
    std::size_t P_, C_, S_;  ///< patterns, categories, doubles per category strip
    std::vector<double> a_, b_, sa_, sb_;
};

TEST_F(ForestItemTest, RescaleIsAnExactPowerOfTwo) {
    const double lenA = 0.13, lenB = 0.41;
    std::vector<double> out(C_ * S_), so(P_);
    EXPECT_EQ(forestCombineItem(k_, a_.data(), sa_.data(), lenA, b_.data(), sb_.data(), lenB,
                                out.data(), so.data(), nullptr),
              2 * C_);

    // The unscaled Eq. 19 product through the same matrices.
    std::vector<double> raw(C_ * S_);
    for (std::size_t c = 0; c < C_; ++c) {
        TransMat ta, tb;
        ta.pack(model_.transition(lenA * lik_.rateCategories().rates[c]));
        tb.pack(model_.transition(lenB * lik_.rateCategories().rates[c]));
        pruneStrip(ta, tb, a_.data() + c * S_, b_.data() + c * S_, raw.data() + c * S_, P_);
    }
    for (std::size_t p = 0; p < P_; ++p) {
        double m = 0.0, scaledMax = 0.0;
        for (std::size_t c = 0; c < C_; ++c)
            for (std::size_t x = 0; x < 4; ++x) {
                m = std::max(m, raw[at(c, p, x)]);
                scaledMax = std::max(scaledMax, out[at(c, p, x)]);
            }
        const int e = std::ilogb(m);
        EXPECT_GE(scaledMax, 1.0) << "pattern " << p;
        EXPECT_LT(scaledMax, 2.0) << "pattern " << p;
        for (std::size_t c = 0; c < C_; ++c)
            for (std::size_t x = 0; x < 4; ++x)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(std::ldexp(out[at(c, p, x)], e)),
                          std::bit_cast<std::uint64_t>(raw[at(c, p, x)]))
                    << "pattern " << p;
        EXPECT_DOUBLE_EQ(so[p], sa_[p] + sb_[p] + e * std::numbers::ln2) << "pattern " << p;
    }
}

TEST_F(ForestItemTest, BitEqualBranchLengthsShareOneMatrixPerCategory) {
    std::vector<double> shared(C_ * S_), twice(C_ * S_), so(P_);
    EXPECT_EQ(forestCombineItem(k_, a_.data(), sa_.data(), 0.25, b_.data(), sb_.data(), 0.25,
                                shared.data(), so.data(), nullptr),
              C_);
    // The same values as exponentiating the length twice.
    for (std::size_t c = 0; c < C_; ++c) {
        TransMat ta, tb;
        ta.pack(model_.transition(0.25 * lik_.rateCategories().rates[c]));
        tb.pack(model_.transition(0.25 * lik_.rateCategories().rates[c]));
        pruneStrip(ta, tb, a_.data() + c * S_, b_.data() + c * S_, twice.data() + c * S_, P_);
    }
    std::vector<double> s2(P_);
    for (std::size_t p0 = 0; p0 < P_; p0 += kForestChunk)
        rescaleForestChunk(twice.data(), P_, C_, sa_.data(), sb_.data(), s2.data(), p0,
                           std::min(kForestChunk, P_ - p0));
    EXPECT_EQ(shared, twice);
    EXPECT_EQ(so, s2);
}

TEST_F(ForestItemTest, AZeroSiteYieldsMinusInfinity) {
    // Pattern 0 is impossible in child A: its product is zero in every
    // category, it keeps its carried scale, and the root is -inf.
    for (std::size_t c = 0; c < C_; ++c)
        for (std::size_t x = 0; x < 4; ++x) a_[at(c, 0, x)] = 0.0;
    std::vector<double> out(C_ * S_), so(P_);
    double rootLogL = 0.0;
    forestCombineItem(k_, a_.data(), sa_.data(), 0.2, b_.data(), sb_.data(), 0.3, out.data(),
                      so.data(), &rootLogL);
    EXPECT_EQ(rootLogL, -std::numeric_limits<double>::infinity());
    EXPECT_EQ(so[0], sa_[0] + sb_[0]);
    EXPECT_EQ(forestRootLogLik(k_, out.data(), so.data()),
              -std::numeric_limits<double>::infinity());

    // Without the zero pattern the fold is finite.
    const std::vector<double> b2 = b_;
    double finite = 0.0;
    forestCombineItem(k_, b_.data(), sb_.data(), 0.2, b2.data(), sb_.data(), 0.3, out.data(),
                      so.data(), &finite);
    EXPECT_TRUE(std::isfinite(finite));
}

}  // namespace
}  // namespace mpcgs
