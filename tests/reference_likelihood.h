// Scalar Felsenstein pruning (Eqs. 19-22), one pattern at a time: the
// numerical reference that the engine agreement tests and the scalar
// kernel benchmark hold the tiled-strip engine (lik/engine.h) to. It reads
// only DataLikelihood's public accessors and runs on no library path.
//
//   L_n(X) = [sum_Y P_XY(t_nj) L_j(Y)] * [sum_Y P_XY(t_nk) L_k(Y)]   (Eq. 19)
//   L_i(G) = sum_X pi_X L_root(X)                                    (Eq. 21)
//   log P(D|G) = sum_i w_i log L_i(G)                                (Eq. 22)
//
// With rate categories, a site's likelihood averages the pruning
// likelihood over the categories, each scaling every branch length by its
// rate. Underflow is handled by per-node rescaling carried in log space
// (§5.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "lik/felsenstein.h"
#include "phylo/tree.h"
#include "util/error.h"
#include "util/logspace.h"
#include "util/matrix4.h"

namespace mpcgs {
namespace reference_detail {

/// When the largest partial of a node drops below this, factor it out.
inline constexpr double kScaleFloor = 1e-100;

/// Per-branch transition matrices, indexed by child id; branch lengths
/// scaled by `rate`.
inline std::vector<Matrix4> branchMatrices(const DataLikelihood& lik, const Genealogy& g,
                                           double rate) {
    std::vector<Matrix4> pmat(static_cast<std::size_t>(g.nodeCount()));
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        if (id == g.root()) continue;
        pmat[static_cast<std::size_t>(id)] = lik.model().transition(rate * g.branchLength(id));
    }
    return pmat;
}

/// Log-likelihood of one pattern by a pruning pass over `order`;
/// `partials` is scratch laid out [node][nucleotide].
inline double computePattern(const DataLikelihood& lik, const Genealogy& g,
                             const std::vector<NodeId>& order,
                             const std::vector<Matrix4>& pmat, std::size_t pattern,
                             std::vector<double>& partials) {
    const std::size_t nSeq = lik.patterns().sequenceCount();
    const NucCode* codes = lik.patterns().codesData() + pattern * nSeq;
    double logScale = 0.0;

    for (const NodeId id : order) {
        double* out = &partials[static_cast<std::size_t>(id) * 4];
        if (g.isTip(id)) {
            require(static_cast<std::size_t>(id) < nSeq, "likelihood: tip beyond alignment");
            const NucCode c = codes[id];
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

    const BaseFreqs& pi = lik.rootFreqs();
    const double* rootPartial = &partials[static_cast<std::size_t>(g.root()) * 4];
    double site = 0.0;
    for (std::size_t x = 0; x < 4; ++x) site += pi[x] * rootPartial[x];  // Eq. 21
    if (site <= 0.0) return -std::numeric_limits<double>::infinity();
    return std::log(site) + logScale;
}

}  // namespace reference_detail

/// log L_p(G) of every pattern p, each averaged over the rate categories.
inline std::vector<double> referencePatternLogLikelihoods(const DataLikelihood& lik,
                                                          const Genealogy& g) {
    using reference_detail::branchMatrices;
    using reference_detail::computePattern;
    require(static_cast<std::size_t>(g.tipCount()) == lik.patterns().sequenceCount(),
            "likelihood: tip count != sequence count");
    const auto order = g.postorder();
    const RateCategories& rates = lik.rateCategories();
    const std::size_t C = rates.count();
    std::vector<std::vector<Matrix4>> pmats(C);
    for (std::size_t c = 0; c < C; ++c) pmats[c] = branchMatrices(lik, g, rates.rates[c]);
    std::vector<double> partials(static_cast<std::size_t>(g.nodeCount()) * 4);
    std::vector<double> out(lik.patternCount());
    for (std::size_t p = 0; p < out.size(); ++p) {
        if (C == 1) {
            out[p] = computePattern(lik, g, order, pmats[0], p, partials);
            continue;
        }
        double acc = -std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < C; ++c)
            acc = logAdd(acc, std::log(rates.weights[c]) +
                                  computePattern(lik, g, order, pmats[c], p, partials));
        out[p] = acc;
    }
    return out;
}

/// log P(D|G): the multiplicity-weighted sum of the pattern log-likelihoods,
/// in pattern order.
inline double referenceLogLikelihood(const DataLikelihood& lik, const Genealogy& g) {
    const std::vector<double> sites = referencePatternLogLikelihoods(lik, g);
    const double* weights = lik.patterns().weightsData();
    double total = 0.0;
    for (std::size_t p = 0; p < sites.size(); ++p) total += weights[p] * sites[p];
    return total;
}

}  // namespace mpcgs
