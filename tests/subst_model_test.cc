#include "seq/subst_model.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"

namespace mpcgs {
namespace {

const BaseFreqs kSkewed{0.35, 0.15, 0.2, 0.3};

std::vector<std::unique_ptr<SubstModel>> allModels() {
    std::vector<std::unique_ptr<SubstModel>> ms;
    ms.push_back(std::make_unique<F81Model>(kSkewed));
    ms.push_back(makeJc69());
    ms.push_back(makeK80(2.5));
    ms.push_back(makeHky85(2.5, kSkewed));
    ms.push_back(makeF84(1.5, kSkewed));
    ms.push_back(std::make_unique<GtrModel>(
        "GTR", GtrModel::Exchangeabilities{1.0, 2.0, 0.5, 0.7, 3.0, 1.2}, kSkewed));
    return ms;
}

class AllModels : public ::testing::TestWithParam<double> {};

TEST_P(AllModels, RowsSumToOne) {
    const double t = GetParam();
    for (const auto& m : allModels()) {
        const Matrix4 p = m->transition(t);
        EXPECT_LT(p.rowSumError(), 1e-10) << m->name() << " t=" << t;
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = 0; j < 4; ++j)
                EXPECT_GE(p(i, j), 0.0) << m->name() << " entry " << i << "," << j;
    }
}

TEST_P(AllModels, ChapmanKolmogorov) {
    const double t = GetParam();
    for (const auto& m : allModels()) {
        const Matrix4 whole = m->transition(2.0 * t);
        const Matrix4 halves = m->transition(t) * m->transition(t);
        EXPECT_LT(whole.maxAbsDiff(halves), 1e-9) << m->name() << " t=" << t;
    }
}

TEST_P(AllModels, DetailedBalance) {
    const double t = GetParam();
    for (const auto& m : allModels()) {
        const Matrix4 p = m->transition(t);
        const BaseFreqs& pi = m->stationary();
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = 0; j < 4; ++j)
                EXPECT_NEAR(pi[i] * p(i, j), pi[j] * p(j, i), 1e-10)
                    << m->name() << " pair " << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(BranchLengths, AllModels,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5, 1.0, 5.0));

TEST(SubstModelTest, ZeroTimeIsIdentity) {
    for (const auto& m : allModels())
        EXPECT_LT(m->transition(0.0).maxAbsDiff(Matrix4::identity()), 1e-12) << m->name();
}

TEST(SubstModelTest, LongTimeReachesStationarity) {
    for (const auto& m : allModels()) {
        const Matrix4 p = m->transition(500.0);
        const BaseFreqs& pi = m->stationary();
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = 0; j < 4; ++j)
                EXPECT_NEAR(p(i, j), pi[j], 1e-8) << m->name();
    }
}

TEST(SubstModelTest, NormalizedModelsHaveUnitMeanRate) {
    EXPECT_NEAR(makeJc69()->meanRate(), 1.0, 1e-12);
    EXPECT_NEAR(makeK80(3.0)->meanRate(), 1.0, 1e-12);
    EXPECT_NEAR(makeHky85(3.0, kSkewed)->meanRate(), 1.0, 1e-12);
    EXPECT_NEAR(makeF84(1.0, kSkewed)->meanRate(), 1.0, 1e-12);
}

TEST(SubstModelTest, F81MatchesEq20Verbatim) {
    // Eq. 20: P_XY(t) = e^{-ut} delta + (1 - e^{-ut}) pi_Y.
    const double u = 1.7, t = 0.42;
    const F81Model m(kSkewed, u);
    const Matrix4 p = m.transition(t);
    const double e = std::exp(-u * t);
    for (std::size_t x = 0; x < 4; ++x)
        for (std::size_t y = 0; y < 4; ++y) {
            const double expect = (x == y ? e : 0.0) + (1.0 - e) * kSkewed[y];
            EXPECT_NEAR(p(x, y), expect, 1e-14);
        }
}

TEST(SubstModelTest, F81EqualsGtrWithUniformExchangeabilities) {
    // F81 with u=1 equals unnormalized GTR with all exchangeabilities 1.
    const F81Model analytic(kSkewed, 1.0);
    const GtrModel spectral("GTR", {1, 1, 1, 1, 1, 1}, kSkewed, /*normalize=*/false);
    for (const double t : {0.05, 0.3, 1.2}) {
        EXPECT_LT(analytic.transition(t).maxAbsDiff(spectral.transition(t)), 1e-10);
    }
}

TEST(SubstModelTest, F84WithZeroKappaIsF81Shape) {
    // kappa = 0 removes the within-class boost; after normalization F84
    // equals normalized F81 (= normalized uniform-exchangeability GTR).
    const auto f84 = makeF84(0.0, kSkewed);
    const GtrModel f81norm("GTR", {1, 1, 1, 1, 1, 1}, kSkewed, /*normalize=*/true);
    for (const double t : {0.1, 0.7}) {
        EXPECT_LT(f84->transition(t).maxAbsDiff(f81norm.transition(t)), 1e-10);
    }
}

TEST(SubstModelTest, K80IsHkyWithUniformFreqs) {
    const auto k80 = makeK80(4.0);
    const auto hky = makeHky85(4.0, kUniformFreqs);
    for (const double t : {0.1, 1.0}) {
        EXPECT_LT(k80->transition(t).maxAbsDiff(hky->transition(t)), 1e-12);
    }
}

TEST(SubstModelTest, K80TransitionsExceedTransversions) {
    const Matrix4 p = makeK80(5.0)->transition(0.2);
    // A->G (transition) should be more probable than A->C (transversion).
    EXPECT_GT(p(kNucA, kNucG), p(kNucA, kNucC));
    EXPECT_GT(p(kNucC, kNucT), p(kNucC, kNucG));
}

TEST(SubstModelTest, JcClosedForm) {
    // JC69 (normalized): P_same = 1/4 + 3/4 e^{-4t/3}.
    const auto jc = makeJc69();
    for (const double t : {0.05, 0.2, 1.0}) {
        const Matrix4 p = jc->transition(t);
        const double same = 0.25 + 0.75 * std::exp(-4.0 * t / 3.0);
        const double diff = 0.25 - 0.25 * std::exp(-4.0 * t / 3.0);
        EXPECT_NEAR(p(0, 0), same, 1e-10);
        EXPECT_NEAR(p(0, 1), diff, 1e-10);
    }
}

TEST(SubstModelTest, RateMatrixRowsSumToZero) {
    for (const auto& m : allModels()) {
        const Matrix4 q = m->rateMatrix();
        for (std::size_t i = 0; i < 4; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < 4; ++j) s += q(i, j);
            EXPECT_NEAR(s, 0.0, 1e-10) << m->name();
        }
    }
}

TEST(SubstModelTest, CloneIsIndependentAndEqual) {
    const auto m = makeHky85(2.0, kSkewed);
    const auto c = m->clone();
    EXPECT_EQ(c->name(), m->name());
    EXPECT_LT(c->transition(0.3).maxAbsDiff(m->transition(0.3)), 1e-15);
}

TEST(SubstModelTest, RejectsBadInputs) {
    EXPECT_THROW(F81Model({0.5, 0.5, 0.0, 0.0}), ConfigError);
    EXPECT_THROW(F81Model(kSkewed, 0.0), ConfigError);
    EXPECT_THROW(makeK80(0.0), ConfigError);
    EXPECT_THROW(makeF84(-1.0, kSkewed), ConfigError);
    BaseFreqs notNormalized{0.5, 0.5, 0.5, 0.5};
    EXPECT_THROW(makeHky85(2.0, notNormalized), ConfigError);
    const F81Model m(kSkewed);
    EXPECT_THROW(m.transition(-0.1), InvariantError);
}

}  // namespace
}  // namespace mpcgs
