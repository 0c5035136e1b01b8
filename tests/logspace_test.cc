#include "util/logspace.h"

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogAdd, MatchesLinearForModerateValues) {
    EXPECT_NEAR(logAdd(std::log(3.0), std::log(4.0)), std::log(7.0), 1e-12);
    EXPECT_NEAR(logAdd(std::log(1e-5), std::log(2e-5)), std::log(3e-5), 1e-12);
}

TEST(LogAdd, IsCommutative) {
    EXPECT_DOUBLE_EQ(logAdd(-1.5, -700.0), logAdd(-700.0, -1.5));
}

TEST(LogAdd, HandlesZeroOperands) {
    EXPECT_DOUBLE_EQ(logAdd(-kInf, 2.5), 2.5);
    EXPECT_DOUBLE_EQ(logAdd(2.5, -kInf), 2.5);
    EXPECT_DOUBLE_EQ(logAdd(-kInf, -kInf), -kInf);
}

TEST(LogAdd, AvoidsUnderflowForExtremeMagnitudes) {
    // e^-2000 + e^-2001 would be 0 in linear space.
    const double r = logAdd(-2000.0, -2001.0);
    EXPECT_NEAR(r, -2000.0 + std::log1p(std::exp(-1.0)), 1e-12);
}

TEST(LogAdd, LargerOperandDominatesWhenFarApart) {
    EXPECT_DOUBLE_EQ(logAdd(0.0, -800.0), 0.0);
}

TEST(LogSumExp, EmptyIsLogZero) {
    EXPECT_EQ(logSumExp({}), -kInf);
}

TEST(LogSumExp, SingleElement) {
    const std::vector<double> xs{-42.0};
    EXPECT_DOUBLE_EQ(logSumExp(xs), -42.0);
}

TEST(LogSumExp, MatchesSequentialLogAdd) {
    const std::vector<double> xs{-1.0, -2.0, -3.0, -4.5, -0.25};
    double seq = -kInf;
    for (double x : xs) seq = logAdd(seq, x);
    EXPECT_NEAR(logSumExp(xs), seq, 1e-12);
}

TEST(LogSumExp, AllZeros) {
    const std::vector<double> xs{-kInf, -kInf};
    EXPECT_EQ(logSumExp(xs), -kInf);
}

TEST(LogNormalize, ProducesProbabilities) {
    const std::vector<double> lw{-1.0, -2.0, -3.0};
    std::vector<double> p;
    logNormalize(lw, p);
    double sum = 0.0;
    for (double x : p) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GT(p[0], p[1]);
    EXPECT_GT(p[1], p[2]);
}

TEST(LogNormalize, HandlesExtremeOffsets) {
    const std::vector<double> lw{-5000.0, -5001.0};
    std::vector<double> p;
    logNormalize(lw, p);
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
    EXPECT_NEAR(p[0] / p[1], std::exp(1.0), 1e-9);
}

TEST(LogNormalize, AllZeroFallsBackToUniform) {
    const std::vector<double> lw{-kInf, -kInf, -kInf, -kInf};
    std::vector<double> p;
    logNormalize(lw, p);
    for (double x : p) EXPECT_DOUBLE_EQ(x, 0.25);
}

// Property sweep: logAdd consistency against long double linear arithmetic
// across magnitudes.
class LogAddProperty : public ::testing::TestWithParam<double> {};

TEST_P(LogAddProperty, AgreesWithLongDouble) {
    const double base = GetParam();
    std::mt19937 gen(1234);
    std::uniform_real_distribution<double> d(-5.0, 5.0);
    for (int i = 0; i < 200; ++i) {
        const double a = base + d(gen);
        const double b = base + d(gen);
        const long double lin =
            std::log(std::exp(static_cast<long double>(a) - base) +
                     std::exp(static_cast<long double>(b) - base)) + base;
        EXPECT_NEAR(logAdd(a, b), static_cast<double>(lin), 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, LogAddProperty,
                         ::testing::Values(-600.0, -100.0, -10.0, 0.0, 10.0, 100.0, 600.0));

}  // namespace
}  // namespace mpcgs
