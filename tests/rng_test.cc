#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "rng/mt19937.h"
#include "rng/philox.h"

namespace mpcgs {
namespace {

TEST(Mt19937Test, MatchesStdMt19937BitExact) {
    Mt19937 ours(5489u);
    std::mt19937 ref(5489u);
    for (int i = 0; i < 2000; ++i) EXPECT_EQ(ours.nextU32(), ref());
}

TEST(Mt19937Test, TenThousandthValueIsReferenceConstant) {
    // The C++ standard fixes the 10000th consecutive invocation of a
    // default-constructed mt19937 to 4123659995.
    Mt19937 rng(5489u);
    std::uint32_t v = 0;
    for (int i = 0; i < 10000; ++i) v = rng.nextU32();
    EXPECT_EQ(v, 4123659995u);
}

TEST(Mt19937Test, SeedsProduceDifferentStreams) {
    Mt19937 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.nextU32() == b.nextU32()) ++same;
    EXPECT_LT(same, 3);
}

TEST(Mt19937Test, FromSplitMixKnownAnswers) {
    // Recorded from the modulo-indexed twist and the default-constructed
    // fromSplitMix result; the first output already runs one twist, the
    // 1248th a second.
    const struct {
        std::uint64_t seed;
        std::array<std::uint32_t, 4> first;
        std::uint32_t nth1248;
    } kKnown[] = {
        {4711u, {0x7ca13638u, 0x591a4802u, 0xdd10c6fbu, 0xf13249aau}, 0x9575bd82u},
        {0x0123456789abcdefu, {0x97619ec3u, 0xdb6f8f6du, 0xc8c908cau, 0x8a118d95u},
         0x8d944adcu},
    };
    for (const auto& k : kKnown) {
        Mt19937 rng = Mt19937::fromSplitMix(k.seed);
        for (const std::uint32_t want : k.first) EXPECT_EQ(rng.nextU32(), want) << k.seed;
        for (int i = 4; i < 1247; ++i) rng.nextU32();
        EXPECT_EQ(rng.nextU32(), k.nth1248) << k.seed;

        Mt19937 inPlace{Mt19937::Unseeded{}};
        inPlace.reseedSplitMix(k.seed);
        EXPECT_EQ(inPlace.nextU32(), k.first[0]) << k.seed;
    }
}

TEST(Mt19937Test, ReseedReproduces) {
    Mt19937 rng(777);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 50; ++i) first.push_back(rng.nextU32());
    rng.reseed(777);
    for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.nextU32(), first[static_cast<std::size_t>(i)]);
}

TEST(PhiloxTest, KnownAnswerZeroKeyZeroCounter) {
    // Random123 v1.14.0 known-answer vectors for philox4x32-10.
    const auto out = philox4x32({0u, 0u, 0u, 0u}, {0u, 0u});
    EXPECT_EQ(out[0], 0x6627e8d5u);
    EXPECT_EQ(out[1], 0xe169c58du);
    EXPECT_EQ(out[2], 0xbc57ac4cu);
    EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(PhiloxTest, KnownAnswerAllOnes) {
    const auto out = philox4x32({0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
                                {0xffffffffu, 0xffffffffu});
    EXPECT_EQ(out[0], 0x408f276du);
    EXPECT_EQ(out[1], 0x41c83b0eu);
    EXPECT_EQ(out[2], 0xa20bc7c6u);
    EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(PhiloxTest, KnownAnswerPiDigits) {
    const auto out = philox4x32({0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
                                {0xa4093822u, 0x299f31d0u});
    EXPECT_EQ(out[0], 0xd16cfe09u);
    EXPECT_EQ(out[1], 0x94fdccebu);
    EXPECT_EQ(out[2], 0x5001e420u);
    EXPECT_EQ(out[3], 0x24126ea1u);
}

TEST(PhiloxTest, StreamsAreDecorrelated) {
    Philox a(42, 0), b(42, 1);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.nextU32() == b.nextU32()) ++same;
    EXPECT_LT(same, 5);
}

TEST(PhiloxTest, SplitMatchesDirectConstruction) {
    Philox base(99, 0);
    Philox split = base.split(7);
    Philox direct(99, 7);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(split.nextU32(), direct.nextU32());
}

TEST(PhiloxTest, DeterministicAcrossInstances) {
    Philox a(123, 5), b(123, 5);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU32(), b.nextU32());
}

// --- distribution helpers ----------------------------------------------------

TEST(RngHelpers, Uniform01InRange) {
    Philox rng(1, 0);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngHelpers, Uniform01MeanIsHalf) {
    Philox rng(2, 0);
    double acc = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) acc += rng.uniform01();
    EXPECT_NEAR(acc / n, 0.5, 0.005);
}

TEST(RngHelpers, BelowIsUnbiased) {
    Mt19937 rng(3);
    std::array<int, 7> counts{};
    const int n = 70000;
    for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(rng.below(7))]++;
    for (const int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(RngHelpers, BelowThrowsOnZero) {
    Mt19937 rng(4);
    EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(RngHelpers, BetweenCoversRangeInclusive) {
    Mt19937 rng(5);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const long long v = rng.between(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        sawLo |= (v == -2);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(RngHelpers, ExponentialMeanAndPositivity) {
    Mt19937 rng(6);
    const double rate = 2.5;
    double acc = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(rate);
        EXPECT_GT(x, 0.0);
        acc += x;
    }
    EXPECT_NEAR(acc / n, 1.0 / rate, 0.005);
}

TEST(RngHelpers, ExponentialRejectsBadRate) {
    Mt19937 rng(7);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngHelpers, NormalMoments) {
    Mt19937 rng(8);
    const int n = 200000;
    double m1 = 0.0, m2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        m1 += x;
        m2 += x * x;
    }
    EXPECT_NEAR(m1 / n, 0.0, 0.01);
    EXPECT_NEAR(m2 / n, 1.0, 0.02);
}

TEST(RngHelpers, CategoricalFollowsWeights) {
    Mt19937 rng(9);
    const std::vector<double> w{1.0, 2.0, 7.0};
    std::array<int, 3> counts{};
    const int n = 100000;
    for (int i = 0; i < n; ++i) counts[rng.categorical(w)]++;
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(RngHelpers, CategoricalEdgeCases) {
    Mt19937 rng(10);
    EXPECT_THROW(rng.categorical({}), std::invalid_argument);
    const std::vector<double> zero{0.0, 0.0};
    EXPECT_THROW(rng.categorical(zero), std::invalid_argument);
    const std::vector<double> neg{1.0, -0.5};
    EXPECT_THROW(rng.categorical(neg), std::invalid_argument);
    const std::vector<double> onehot{0.0, 5.0, 0.0};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(onehot), 1u);
}

TEST(RngHelpers, CategoricalFromLogMatchesLinear) {
    Mt19937 a(11), b(11);
    const std::vector<double> w{0.5, 0.25, 0.25};
    const std::vector<double> lw{std::log(0.5) - 500, std::log(0.25) - 500,
                                 std::log(0.25) - 500};
    for (int i = 0; i < 500; ++i) EXPECT_EQ(a.categorical(w), b.categoricalFromLog(lw));
}

TEST(RngHelpers, ChiSquareUniformityOfU32LowBits) {
    // 16-bin chi-square on the low 4 bits of Philox output.
    Philox rng(77, 0);
    std::array<double, 16> counts{};
    const int n = 160000;
    for (int i = 0; i < n; ++i) counts[rng.nextU32() & 0xF] += 1.0;
    double chi2 = 0.0;
    const double expect = n / 16.0;
    for (const double c : counts) chi2 += (c - expect) * (c - expect) / expect;
    // 15 dof: P(chi2 > 37.7) ~ 0.001.
    EXPECT_LT(chi2, 37.7);
}

}  // namespace
}  // namespace mpcgs
