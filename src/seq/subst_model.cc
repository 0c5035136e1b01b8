#include "seq/subst_model.h"

#include <cmath>

#include "util/error.h"

namespace mpcgs {
namespace {

void checkFreqs(const BaseFreqs& pi) {
    double sum = 0.0;
    for (const double p : pi) {
        if (p <= 0.0) throw ConfigError("substitution model: frequencies must be positive");
        sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-8)
        throw ConfigError("substitution model: frequencies must sum to 1");
}

}  // namespace

double SubstModel::meanRate() const {
    const Matrix4 q = rateMatrix();
    const BaseFreqs& pi = stationary();
    double rate = 0.0;
    for (std::size_t i = 0; i < 4; ++i) rate -= pi[i] * q(i, i);
    return rate;
}

// --- F81 (Eq. 20) ------------------------------------------------------------

F81Model::F81Model(BaseFreqs pi, double u) : pi_(pi), u_(u) {
    checkFreqs(pi_);
    if (u <= 0.0) throw ConfigError("F81: u must be positive");
}

Matrix4 F81Model::transition(double t) const {
    require(t >= 0.0, "transition: negative branch length");
    const double e = std::exp(-u_ * t);
    Matrix4 p;
    for (std::size_t x = 0; x < 4; ++x)
        for (std::size_t y = 0; y < 4; ++y)
            p(x, y) = (x == y ? e : 0.0) + (1.0 - e) * pi_[y];
    return p;
}

Matrix4 F81Model::rateMatrix() const {
    // dP/dt at t=0: Q_xy = u * pi_y for x != y, Q_xx = -u * (1 - pi_x).
    Matrix4 q;
    for (std::size_t x = 0; x < 4; ++x)
        for (std::size_t y = 0; y < 4; ++y)
            q(x, y) = (x == y) ? -u_ * (1.0 - pi_[x]) : u_ * pi_[y];
    return q;
}

// --- GTR ---------------------------------------------------------------------

namespace {

/// Index of the (i, j) exchangeability in the canonical AC,AG,AT,CG,CT,GT
/// order, for i < j.
std::size_t exchIndex(std::size_t i, std::size_t j) {
    // (0,1)=AC (0,2)=AG (0,3)=AT (1,2)=CG (1,3)=CT (2,3)=GT
    static constexpr int table[4][4] = {{-1, 0, 1, 2}, {0, -1, 3, 4}, {1, 3, -1, 5}, {2, 4, 5, -1}};
    return static_cast<std::size_t>(table[i][j]);
}

}  // namespace

GtrModel::GtrModel(std::string name, const Exchangeabilities& s, BaseFreqs pi, bool normalize)
    : name_(std::move(name)), pi_(pi) {
    checkFreqs(pi_);
    for (const double v : s)
        if (v < 0.0) throw ConfigError("GTR: exchangeabilities must be non-negative");

    // Build Q with q_ij = s_ij * pi_j for i != j.
    for (std::size_t i = 0; i < 4; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < 4; ++j) {
            if (i == j) continue;
            const double rate = s[exchIndex(i, j)] * pi_[j];
            q_(i, j) = rate;
            rowSum += rate;
        }
        q_(i, i) = -rowSum;
    }

    if (normalize) {
        double rate = 0.0;
        for (std::size_t i = 0; i < 4; ++i) rate -= pi_[i] * q_(i, i);
        if (rate <= 0.0) throw ConfigError("GTR: degenerate rate matrix");
        q_ = q_.scaled(1.0 / rate);
    }

    // Symmetrize: B = D^{1/2} Q D^{-1/2} with D = diag(pi).
    Matrix4 b;
    std::array<double, 4> sq{}, isq{};
    for (std::size_t i = 0; i < 4; ++i) {
        sq[i] = std::sqrt(pi_[i]);
        isq[i] = 1.0 / sq[i];
    }
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) b(i, j) = sq[i] * q_(i, j) * isq[j];

    const SymEigen4 eig = symmetricEigen(b);
    lambda_ = eig.values;
    // left = D^{-1/2} V,  right = V^T D^{1/2}.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
            left_(i, j) = isq[i] * eig.vectors(i, j);
            right_(i, j) = eig.vectors(j, i) * sq[j];
        }
}

Matrix4 GtrModel::transition(double t) const {
    require(t >= 0.0, "transition: negative branch length");
    Matrix4 p;
    std::array<double, 4> e{};
    for (std::size_t k = 0; k < 4; ++k) e[k] = std::exp(lambda_[k] * t);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < 4; ++k) acc += left_(i, k) * e[k] * right_(k, j);
            // Clamp the tiny negative values spectral round-off can produce.
            p(i, j) = acc < 0.0 ? 0.0 : acc;
        }
    return p;
}

// --- factories ---------------------------------------------------------------

std::unique_ptr<SubstModel> makeJc69() {
    return std::make_unique<GtrModel>("JC69", GtrModel::Exchangeabilities{1, 1, 1, 1, 1, 1},
                                      kUniformFreqs);
}

std::unique_ptr<SubstModel> makeK80(double kappa) {
    if (kappa <= 0.0) throw ConfigError("K80: kappa must be positive");
    return std::make_unique<GtrModel>(
        "K80", GtrModel::Exchangeabilities{1, kappa, 1, 1, kappa, 1}, kUniformFreqs);
}

std::unique_ptr<SubstModel> makeHky85(double kappa, BaseFreqs pi) {
    if (kappa <= 0.0) throw ConfigError("HKY85: kappa must be positive");
    return std::make_unique<GtrModel>("HKY85",
                                      GtrModel::Exchangeabilities{1, kappa, 1, 1, kappa, 1}, pi);
}

std::unique_ptr<SubstModel> makeF84(double kappa, BaseFreqs pi) {
    if (kappa < 0.0) throw ConfigError("F84: kappa must be non-negative");
    // Felsenstein's two-process form: general replacement at rate b plus a
    // within-class replacement at rate a = kappa * b. As exchangeabilities
    // this is 1 + kappa/pi_R for A<->G and 1 + kappa/pi_Y for C<->T.
    const double piR = pi[kNucA] + pi[kNucG];
    const double piY = pi[kNucC] + pi[kNucT];
    return std::make_unique<GtrModel>(
        "F84",
        GtrModel::Exchangeabilities{1, 1 + kappa / piR, 1, 1, 1 + kappa / piY, 1}, pi);
}

}  // namespace mpcgs
