#include "lik/felsenstein.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

/// Rescale threshold: when the largest partial of a node drops below this,
/// factor it out and carry it in log space (§5.3).
constexpr double kScaleFloor = 1e-100;

}  // namespace

DataLikelihood::DataLikelihood(const Alignment& aln, const SubstModel& model,
                               bool compressPatterns)
    : DataLikelihood(aln, model, RateCategories::uniformRate(), compressPatterns) {}

DataLikelihood::DataLikelihood(const Alignment& aln, const SubstModel& model,
                               RateCategories rates, bool compressPatterns)
    : patterns_(aln, compressPatterns),
      model_(model.clone()),
      pi_(model.stationary()),
      rates_(std::move(rates)) {
    rates_.validate();
    engine_ = std::make_unique<LikelihoodEngine>(patterns_, *model_, rates_);
}

std::vector<Matrix4> DataLikelihood::branchMatrices(const Genealogy& g, double rate) const {
    std::vector<Matrix4> pmat(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        if (id == g.root()) continue;
        pmat[static_cast<std::size_t>(id)] = model_->transition(rate * g.branchLength(id));
    }
    return pmat;
}

double DataLikelihood::computePattern(const Genealogy& g, const std::vector<NodeId>& order,
                                      const std::vector<Matrix4>& pmat, std::size_t pattern,
                                      std::vector<double>& partials) const {
    const std::size_t nSeq = patterns_.sequenceCount();
    double logScale = 0.0;

    for (const NodeId id : order) {
        double* out = &partials[static_cast<std::size_t>(id) * 4];
        if (g.isTip(id)) {
            const NucCode c = patterns_.code(pattern, static_cast<std::size_t>(id));
            require(static_cast<std::size_t>(id) < nSeq, "likelihood: tip beyond alignment");
            for (int x = 0; x < 4; ++x)
                out[x] = (c == kNucUnknown || c == static_cast<NucCode>(x)) ? 1.0 : 0.0;
            continue;
        }
        const TreeNode& nd = g.node(id);
        const double* lj = &partials[static_cast<std::size_t>(nd.child[0]) * 4];
        const double* lk = &partials[static_cast<std::size_t>(nd.child[1]) * 4];
        const Matrix4& pj = pmat[static_cast<std::size_t>(nd.child[0])];
        const Matrix4& pk = pmat[static_cast<std::size_t>(nd.child[1])];
        double maxv = 0.0;
        for (std::size_t x = 0; x < 4; ++x) {
            double sj = 0.0, sk = 0.0;
            for (std::size_t y = 0; y < 4; ++y) {
                sj += pj(x, y) * lj[y];
                sk += pk(x, y) * lk[y];
            }
            out[x] = sj * sk;
            maxv = std::max(maxv, out[x]);
        }
        if (maxv > 0.0 && maxv < kScaleFloor) {
            for (std::size_t x = 0; x < 4; ++x) out[x] /= maxv;
            logScale += std::log(maxv);
        }
    }

    const double* rootPartial = &partials[static_cast<std::size_t>(g.root()) * 4];
    double lik = 0.0;
    for (std::size_t x = 0; x < 4; ++x) lik += pi_[x] * rootPartial[x];  // Eq. 21
    if (lik <= 0.0) return -std::numeric_limits<double>::infinity();
    return std::log(lik) + logScale;
}

double DataLikelihood::logLikelihood(const Genealogy& g, ThreadPool* pool) const {
    return engine_->logLikelihood(g, pool);
}

double DataLikelihood::logLikelihoodReference(const Genealogy& g) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    const auto order = g.postorder();
    const std::size_t C = rates_.count();
    std::vector<std::vector<Matrix4>> pmats(C);
    for (std::size_t c = 0; c < C; ++c) pmats[c] = branchMatrices(g, rates_.rates[c]);
    const std::size_t P = patterns_.patternCount();
    std::vector<double> partials(static_cast<std::size_t>(g.nodeCount()) * 4);

    double total = 0.0;
    for (std::size_t p = 0; p < P; ++p) {
        double site;
        if (C == 1) {
            site = computePattern(g, order, pmats[0], p, partials);
        } else {
            site = -std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < C; ++c)
                site = logAdd(site, std::log(rates_.weights[c]) +
                                        computePattern(g, order, pmats[c], p, partials));
        }
        total += patterns_.weight(p) * site;
    }
    return total;
}

std::vector<double> DataLikelihood::patternLogLikelihoods(const Genealogy& g) const {
    const auto order = g.postorder();
    const std::size_t C = rates_.count();
    std::vector<std::vector<Matrix4>> pmats(C);
    for (std::size_t c = 0; c < C; ++c) pmats[c] = branchMatrices(g, rates_.rates[c]);
    std::vector<double> partials(static_cast<std::size_t>(g.nodeCount()) * 4);
    std::vector<double> out(patterns_.patternCount());
    for (std::size_t p = 0; p < out.size(); ++p) {
        if (C == 1) {
            out[p] = computePattern(g, order, pmats[0], p, partials);
            continue;
        }
        double acc = -std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < C; ++c)
            acc = logAdd(acc, std::log(rates_.weights[c]) +
                                  computePattern(g, order, pmats[c], p, partials));
        out[p] = acc;
    }
    return out;
}

}  // namespace mpcgs
