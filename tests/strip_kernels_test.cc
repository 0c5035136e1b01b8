// Strip kernels (lik/pruning_kernels.h): the vectorizable log against
// std::log, the exactness of the power-of-two rescale in the engine strips
// and the partial-forest items, the shared matrix of bit-equal branch
// lengths, and the -inf path of a zero site.
#include "lik/pruning_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
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
    constexpr std::size_t n = 37;
    Mt19937 rng(91);
    std::vector<double> raw(4 * n), part, scale(n), carried(n);
    for (std::size_t p = 0; p < n; ++p) {
        const double binade = std::ldexp(1.0, -static_cast<int>(rng.below(900)));
        for (std::size_t x = 0; x < 4; ++x) raw[4 * p + x] = binade * rng.uniform01();
        carried[p] = scale[p] = -3.0 * rng.uniform01();
    }
    for (std::size_t x = 0; x < 4; ++x) {
        raw[x] = 0.0;
        raw[4 + x] = std::numeric_limits<double>::denorm_min() * static_cast<double>(4 * (x + 1));
    }
    part = raw;
    rescaleStrip(part.data(), scale.data(), n);
    for (std::size_t p = 2; p < n; ++p) {
        const double m = *std::max_element(raw.begin() + 4 * p, raw.begin() + 4 * p + 4);
        const int e = std::ilogb(m);
        for (std::size_t x = 0; x < 4; ++x)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(std::ldexp(part[4 * p + x], e)),
                      std::bit_cast<std::uint64_t>(raw[4 * p + x]))
                << "pattern " << p;
        EXPECT_DOUBLE_EQ(scale[p], carried[p] + e * std::numbers::ln2) << "pattern " << p;
    }
    // Zero and subnormal patterns keep their values and their scale.
    for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(part[j], raw[j]);
    EXPECT_EQ(scale[0], carried[0]);
    EXPECT_EQ(scale[1], carried[1]);

    std::vector<double> site(n);
    rootLogStrip(part.data(), scale.data(), kUniformFreqs, site.data(), n);
    EXPECT_EQ(site[0], -std::numeric_limits<double>::infinity());
    // Quarters of multiples of four subnormal units: the dot is exact.
    EXPECT_EQ(site[1], std::log(10 * std::numeric_limits<double>::denorm_min()) + scale[1]);
    for (std::size_t p = 2; p < n; ++p) {
        const double* r = part.data() + 4 * p;
        const double dot = 0.25 * r[0] + 0.25 * r[1] + 0.25 * r[2] + 0.25 * r[3];
        const double want = std::log(dot) + scale[p];
        EXPECT_NEAR(site[p], want, 1e-13 * std::abs(want)) << "pattern " << p;
    }
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
          C_(lik_.rateCategories().count()) {
        Mt19937 rng(77);
        for (std::vector<double>* v : {&a_, &b_}) {
            v->resize(C_ * P_ * 4);
            for (std::size_t p = 0; p < P_; ++p) {
                const double binade = std::ldexp(1.0, -static_cast<int>(rng.below(60)));
                for (std::size_t c = 0; c < C_; ++c)
                    for (std::size_t x = 0; x < 4; ++x)
                        (*v)[(c * P_ + p) * 4 + x] = binade * rng.uniform01();
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

    Alignment aln_;
    F81Model model_;
    DataLikelihood lik_;
    ForestKernelData k_;
    std::size_t P_, C_;
    std::vector<double> a_, b_, sa_, sb_;
};

TEST_F(ForestItemTest, RescaleIsAnExactPowerOfTwo) {
    const double lenA = 0.13, lenB = 0.41;
    std::vector<double> out(C_ * P_ * 4), so(P_);
    EXPECT_EQ(forestCombineItem(k_, a_.data(), sa_.data(), lenA, b_.data(), sb_.data(), lenB,
                                out.data(), so.data(), nullptr),
              2 * C_);

    // The unscaled Eq. 19 product through the same matrices.
    std::vector<double> raw(C_ * P_ * 4);
    for (std::size_t c = 0; c < C_; ++c) {
        TransMat ta, tb;
        ta.pack(model_.transition(lenA * lik_.rateCategories().rates[c]));
        tb.pack(model_.transition(lenB * lik_.rateCategories().rates[c]));
        pruneStrip(ta, tb, a_.data() + c * P_ * 4, b_.data() + c * P_ * 4,
                   raw.data() + c * P_ * 4, P_);
    }
    for (std::size_t p = 0; p < P_; ++p) {
        double m = 0.0, scaledMax = 0.0;
        for (std::size_t c = 0; c < C_; ++c)
            for (std::size_t x = 0; x < 4; ++x) {
                m = std::max(m, raw[(c * P_ + p) * 4 + x]);
                scaledMax = std::max(scaledMax, out[(c * P_ + p) * 4 + x]);
            }
        const int e = std::ilogb(m);
        EXPECT_GE(scaledMax, 1.0) << "pattern " << p;
        EXPECT_LT(scaledMax, 2.0) << "pattern " << p;
        for (std::size_t j = (p * 4); j < C_ * P_ * 4; j += P_ * 4)
            for (std::size_t x = 0; x < 4; ++x)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(std::ldexp(out[j + x], e)),
                          std::bit_cast<std::uint64_t>(raw[j + x]))
                    << "pattern " << p;
        EXPECT_DOUBLE_EQ(so[p], sa_[p] + sb_[p] + e * std::numbers::ln2) << "pattern " << p;
    }
}

TEST_F(ForestItemTest, BitEqualBranchLengthsShareOneMatrixPerCategory) {
    std::vector<double> shared(C_ * P_ * 4), twice(C_ * P_ * 4), so(P_);
    EXPECT_EQ(forestCombineItem(k_, a_.data(), sa_.data(), 0.25, b_.data(), sb_.data(), 0.25,
                                shared.data(), so.data(), nullptr),
              C_);
    // The same values as exponentiating the length twice.
    for (std::size_t c = 0; c < C_; ++c) {
        TransMat ta, tb;
        ta.pack(model_.transition(0.25 * lik_.rateCategories().rates[c]));
        tb.pack(model_.transition(0.25 * lik_.rateCategories().rates[c]));
        pruneStrip(ta, tb, a_.data() + c * P_ * 4, b_.data() + c * P_ * 4,
                   twice.data() + c * P_ * 4, P_);
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
        for (std::size_t x = 0; x < 4; ++x) a_[c * P_ * 4 + x] = 0.0;
    std::vector<double> out(C_ * P_ * 4), so(P_);
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
