// Nucleotide substitution models.
//
// The inference side of the paper uses the one-parameter Felsenstein (1981)
// model of Eq. (20):
//
//   P_XY(t) = e^{-ut} * delta_XY + (1 - e^{-ut}) * pi_Y,
//
// while the evaluation generates data with seq-gen's F84 model (§6.1). The
// thesis notes the models are "subtly different" and tolerates the
// mismatch; this library implements both, plus the JC69/K80/HKY85/GTR
// family, so the mismatch itself can be studied (examples/model_comparison).
//
// General reversible models use a spectral decomposition computed once at
// construction: with D = diag(pi), B = D^{1/2} Q D^{-1/2} is symmetric, so
// P(t) = D^{-1/2} V e^{Lambda t} V^T D^{1/2}.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "seq/nucleotide.h"
#include "util/matrix4.h"

namespace mpcgs {

class SubstModel {
  public:
    virtual ~SubstModel() = default;

    /// Transition probability matrix P(X -> Y | t); rows index the source
    /// nucleotide. Rows sum to 1 for every t >= 0.
    virtual Matrix4 transition(double t) const = 0;

    /// Stationary base frequencies pi.
    virtual const BaseFreqs& stationary() const = 0;

    /// Instantaneous rate matrix Q (rows sum to 0).
    virtual Matrix4 rateMatrix() const = 0;

    virtual std::string name() const = 0;
    virtual std::unique_ptr<SubstModel> clone() const = 0;

    /// Expected substitutions per unit time at stationarity,
    /// -sum_i pi_i Q_ii.
    double meanRate() const;
};

/// Eq. (20) verbatim: the model the paper's data-likelihood kernel
/// implements, with `u` the mutation rate per unit time.
class F81Model final : public SubstModel {
  public:
    explicit F81Model(BaseFreqs pi = kUniformFreqs, double u = 1.0);

    Matrix4 transition(double t) const override;
    const BaseFreqs& stationary() const override { return pi_; }
    Matrix4 rateMatrix() const override;
    std::string name() const override { return "F81"; }
    std::unique_ptr<SubstModel> clone() const override {
        return std::make_unique<F81Model>(*this);
    }

    double u() const { return u_; }

  private:
    BaseFreqs pi_;
    double u_;
};

/// General time-reversible model defined by six exchangeabilities
/// (AC, AG, AT, CG, CT, GT) and stationary frequencies.
class GtrModel final : public SubstModel {
  public:
    using Exchangeabilities = std::array<double, 6>;

    /// If `normalize`, Q is scaled so the mean substitution rate is 1
    /// (branch lengths then measure expected substitutions per site, the
    /// seq-gen convention).
    GtrModel(std::string name, const Exchangeabilities& s, BaseFreqs pi, bool normalize = true);

    Matrix4 transition(double t) const override;
    const BaseFreqs& stationary() const override { return pi_; }
    Matrix4 rateMatrix() const override { return q_; }
    std::string name() const override { return name_; }
    std::unique_ptr<SubstModel> clone() const override {
        return std::make_unique<GtrModel>(*this);
    }

  private:
    std::string name_;
    BaseFreqs pi_;
    Matrix4 q_;
    // Spectral factors: P(t) = left * diag(exp(lambda t)) * right.
    Matrix4 left_;
    Matrix4 right_;
    std::array<double, 4> lambda_{};
};

/// Jukes-Cantor 1969 (uniform frequencies, single rate), normalized.
std::unique_ptr<SubstModel> makeJc69();

/// Kimura 1980 two-parameter model with transition/transversion rate ratio
/// kappa, uniform frequencies, normalized.
std::unique_ptr<SubstModel> makeK80(double kappa);

/// Hasegawa-Kishino-Yano 1985 with rate ratio kappa and frequencies pi.
std::unique_ptr<SubstModel> makeHky85(double kappa, BaseFreqs pi);

/// Felsenstein 1984 — the seq-gen default family used by the paper's data
/// generation. `kappa` is the within-class rate boost (a/b in Felsenstein's
/// two-process formulation); kappa = 0 reduces to F81.
std::unique_ptr<SubstModel> makeF84(double kappa, BaseFreqs pi);

}  // namespace mpcgs
