// Tiled Felsenstein strip kernels.
//
// Every routine here sweeps a contiguous strip of site patterns for ONE
// tree node. A strip is a run of tiles of kTilePatterns (8) patterns,
// state-major inside each tile: pattern p's state x sits at
// stripIndex(p, x) = (p / 8) * 32 + x * 8 + p % 8, and that helper is the
// only place the layout is written down. One state of a tile is one
// full-width load, so with the transition matrices pre-transposed
// (TransMat row y = P(., y)) the per-pattern 4x4 mat-vec
//
//   out[x] = (sum_y P_j(x,y) L_j[y]) * (sum_y P_k(x,y) L_k[y])    (Eq. 19)
//
// is four fused multiply-adds per tile row, each matrix entry broadcast
// from a register, and the rescale and root kernels reduce across states
// lane by lane instead of inside a vector. All pointers are __restrict
// and strips never alias.
//
// A strip of n patterns covers the ceil(n/8) tiles stripLength(n) counts.
// Kernels compute the partials of whole tiles; the tips fill pad lanes
// with 1.0, so pads stay finite through every prune. Per-pattern outputs
// (scales, site logs, fold lanes) are written for the n real patterns
// only, so no pad lane reaches a likelihood.
//
// This is the CPU transcription of the paper's one-thread-per-site GPU
// kernel (§5.2.2): the strip index plays the role of threadIdx.x.
//
// The second half of the file holds the partial-forest (SMC) items built
// on the same strips: one fused item per SlotArena operation.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>

#include "lik/rate_model.h"
#include "lik/site_pattern.h"
#include "seq/nucleotide.h"
#include "seq/subst_model.h"
#include "util/aligned.h"
#include "util/matrix4.h"

namespace mpcgs {

/// A transition matrix packed for the strip kernels: row y holds the
/// probabilities INTO the four parent states from child state y,
/// t[4*y + x] = P(x, y). The kernels broadcast each entry across a tile
/// row; 64-byte aligned, the sixteen entries fill two cache lines.
struct alignas(kCacheLineBytes) TransMat {
    double t[16];

    void pack(const Matrix4& p) { p.packTransposed(t); }
};

/// Patterns per strip tile.
inline constexpr std::size_t kTilePatterns = 8;

/// Position of pattern p's state x in a strip: tiles of kTilePatterns
/// patterns, state-major inside each tile, i.e. (p / 8) * 32 + x * 8 +
/// p % 8. Written with the tile start as 4 (p - p % 8), so a kernel's
/// tile offset 4t stays affine in its loop counter t and vectorizes.
constexpr std::size_t stripIndex(std::size_t p, std::size_t x) {
    return 4 * (p - p % kTilePatterns) + x * kTilePatterns + p % kTilePatterns;
}

/// Doubles in a strip of n patterns: whole tiles.
constexpr std::size_t stripLength(std::size_t n) {
    return stripIndex(roundUpTo(n, kTilePatterns), 0);
}

/// Conditional-likelihood propagation for one internal node over the
/// tiles of `n` patterns: out[p] = (Pj lj[p]) .* (Pk lk[p]) element-wise
/// over states.
inline void pruneStrip(const TransMat& pj, const TransMat& pk,
                       const double* __restrict lj, const double* __restrict lk,
                       double* __restrict out, std::size_t n) {
    const double* __restrict tj = pj.t;
    const double* __restrict tk = pk.t;
    for (std::size_t t = 0; t < n; t += kTilePatterns) {
        const double* a = lj + stripIndex(t, 0);
        const double* b = lk + stripIndex(t, 0);
        double* o = out + stripIndex(t, 0);
        for (std::size_t l = 0; l < kTilePatterns; ++l) {
            const double a0 = a[stripIndex(l, 0)], a1 = a[stripIndex(l, 1)],
                         a2 = a[stripIndex(l, 2)], a3 = a[stripIndex(l, 3)];
            const double b0 = b[stripIndex(l, 0)], b1 = b[stripIndex(l, 1)],
                         b2 = b[stripIndex(l, 2)], b3 = b[stripIndex(l, 3)];
            for (std::size_t x = 0; x < 4; ++x) {
                const double sj = tj[x] * a0 + tj[4 + x] * a1 + tj[8 + x] * a2 + tj[12 + x] * a3;
                const double sk = tk[x] * b0 + tk[4 + x] * b1 + tk[8 + x] * b2 + tk[12 + x] * b3;
                o[stripIndex(l, x)] = sj * sk;
            }
        }
    }
}

/// Scale-exponent propagation: so[p] = sa[p] + sb[p]. Either input may be
/// null, meaning an all-zero exponent strip (tips, un-rescaled subtrees).
inline void addScaleStrips(const double* __restrict sa, const double* __restrict sb,
                           double* __restrict so, std::size_t n) {
    if (sa != nullptr && sb != nullptr) {
        for (std::size_t p = 0; p < n; ++p) so[p] = sa[p] + sb[p];
    } else if (sa != nullptr) {
        for (std::size_t p = 0; p < n; ++p) so[p] = sa[p];
    } else if (sb != nullptr) {
        for (std::size_t p = 0; p < n; ++p) so[p] = sb[p];
    } else {
        for (std::size_t p = 0; p < n; ++p) so[p] = 0.0;
    }
}

/// True for a positive normal double, the domain of logPositiveNormal.
inline bool isPositiveNormal(double x) {
    return (std::bit_cast<std::uint64_t>(x) >> 52) - 1 < 0x7fe;
}

/// Natural log of a positive normal double without branches, so a loop of
/// it vectorizes. fdlibm's method (as in musl's log): write x = 2^k (1+f)
/// with 1+f in [sqrt(2)/2, sqrt(2)), then log(1+f) from a polynomial in
/// s = f / (2+f). Within 1 ulp of the true log and exactly 0 at 1. Any
/// other input returns garbage; callers route those through std::log.
inline double logPositiveNormal(double x) {
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kLg1 = 6.666666666666735130e-01;
    constexpr double kLg2 = 3.999999999940941908e-01;
    constexpr double kLg3 = 2.857142874366239149e-01;
    constexpr double kLg4 = 2.222219843214978396e-01;
    constexpr double kLg5 = 1.818357216161805012e-01;
    constexpr double kLg6 = 1.531383769920937332e-01;
    constexpr double kLg7 = 1.479819860511658591e-01;
    // Adding the high-word distance from sqrt(2)/2 to 1 carries mantissas
    // at or above sqrt(2) into the exponent; re-biasing the mantissa then
    // puts 1+f in [sqrt(2)/2, sqrt(2)). k converts through the 2^52 trick.
    const std::uint64_t ix = std::bit_cast<std::uint64_t>(x) + 0x00095f6200000000ull;
    const double k =
        std::bit_cast<double>(0x4330000000000000ull | (ix >> 52)) - (0x1p52 + 1023.0);
    const double f =
        std::bit_cast<double>((ix & 0x000fffffffffffffull) + 0x3fe6a09e00000000ull) - 1.0;
    const double hfsq = 0.5 * f * f;
    const double s = f / (2.0 + f);
    const double z = s * s;
    const double w = z * z;
    const double r = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7))) +
                     w * (kLg2 + w * (kLg4 + w * kLg6));
    return s * (hfsq + r) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

/// Exact power-of-two rescale of a pattern whose largest value is m:
/// `factor` is 2^-e, with e = `exponent` the binary exponent of m, so
/// multiplying by it changes exponents only and m lands in [1, 2). A zero,
/// subnormal or non-finite m, or one in the top binade, gets factor 1 and
/// exponent 0: 2^-e needs a normal exponent field 2046 - biased, and
/// probabilities never get that large.
struct Pow2Scale {
    double factor;
    double exponent;
};

inline Pow2Scale pow2Scale(double m) {
    const std::uint64_t biased = std::bit_cast<std::uint64_t>(m) >> 52;
    const bool scaled = biased - 1 < 0x7fd;
    return {scaled ? std::bit_cast<double>((0x7feull - biased) << 52) : 1.0,
            scaled ? std::bit_cast<double>(0x4330000000000000ull | biased) - (0x1p52 + 1023.0)
                   : 0.0};
}

/// Periodic rescaling (§5.3, hoisted out of the per-node inner loop):
/// multiply each pattern by the exact power of two that brings its max
/// into [1, 2) and add e ln 2 to its natural-log scale, with no divide and
/// no log. Called only every kRescaleInterval tree levels, instead of the
/// scalar path's per-node per-pattern underflow branch.
inline void rescaleStrip(double* __restrict part, double* __restrict scale, std::size_t n) {
    for (std::size_t t = 0; t < n; t += kTilePatterns) {
        double* v = part + stripIndex(t, 0);
        double logFactor[kTilePatterns];
        for (std::size_t l = 0; l < kTilePatterns; ++l) {
            const Pow2Scale s =
                pow2Scale(std::max(std::max(v[stripIndex(l, 0)], v[stripIndex(l, 1)]),
                                   std::max(v[stripIndex(l, 2)], v[stripIndex(l, 3)])));
            for (std::size_t x = 0; x < 4; ++x) v[stripIndex(l, x)] *= s.factor;
            logFactor[l] = s.exponent * std::numbers::ln2;
        }
        const std::size_t lanes = std::min(kTilePatterns, n - t);
        for (std::size_t l = 0; l < lanes; ++l) scale[t + l] += logFactor[l];
    }
}

/// Per-pattern site log-likelihood at the root (Eq. 21 + carried scale):
/// out[p] = log(sum_x pi[x] root[p][x]) + scale[p]. Positive normal dot
/// products take the vectorized log; any other keeps std::log, so a zero
/// root dot product yields -inf, matching the scalar path. `scale` may be
/// null (no rescaling happened anywhere below the root).
inline void rootLogStrip(const double* __restrict root, const double* __restrict scale,
                         const BaseFreqs& pi, double* __restrict out, std::size_t n) {
    const double p0 = pi[0], p1 = pi[1], p2 = pi[2], p3 = pi[3];
    // The dot products of tile t's eight lanes, pads included.
    const auto dots = [&](std::size_t t, double* d) {
        const double* r = root + stripIndex(t, 0);
        for (std::size_t l = 0; l < kTilePatterns; ++l)
            d[l] = p0 * r[stripIndex(l, 0)] + p1 * r[stripIndex(l, 1)] +
                   p2 * r[stripIndex(l, 2)] + p3 * r[stripIndex(l, 3)];
    };
    for (std::size_t t = 0; t < n; t += kTilePatterns) {
        alignas(kCacheLineBytes) double d[kTilePatterns];
        dots(t, d);
        std::copy_n(d, std::min(kTilePatterns, n - t), out + t);
    }
    std::size_t irregular = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const double d = out[p];
        out[p] = logPositiveNormal(d);
        irregular += !isPositiveNormal(d);
    }
    if (irregular != 0)
        for (std::size_t t = 0; t < n; t += kTilePatterns) {
            alignas(kCacheLineBytes) double d[kTilePatterns];
            dots(t, d);
            for (std::size_t l = 0; l < std::min(kTilePatterns, n - t); ++l)
                if (!isPositiveNormal(d[l])) out[t + l] = std::log(d[l]);
        }
    if (scale != nullptr)
        for (std::size_t p = 0; p < n; ++p) out[p] += scale[p];
}

/// Weighted fold of per-pattern site log-likelihoods (Eq. 22):
/// sum_p w[p] * site[p].
inline double weightedSumStrip(const double* __restrict site, const double* __restrict w,
                               std::size_t n) {
    double acc = 0.0;
    for (std::size_t p = 0; p < n; ++p) acc += w[p] * site[p];
    return acc;
}

/// Tip conditional likelihoods for one sequence over the tiles of `n`
/// patterns: the standard 0/1 indicator rows, with kNucUnknown
/// marginalized as all-ones, and 1.0 in every pad lane. `codes` is the
/// pattern-major code matrix of SitePatterns (stride nSeq), `seq` the
/// tip's column in it.
inline void fillTipStrip(const NucCode* codes, std::size_t nSeq, std::size_t seq,
                         double* __restrict out, std::size_t n) {
    for (std::size_t p = 0; p < roundUpTo(n, kTilePatterns); ++p) {
        const NucCode c = p < n ? codes[p * nSeq + seq] : kNucUnknown;
        for (std::size_t x = 0; x < 4; ++x)
            out[stripIndex(p, x)] = c == kNucUnknown || c == x ? 1.0 : 0.0;
    }
}

// ---------------------------------------------------------------------------
// Partial-forest (SMC) items.
//
// A forest slot holds C category strips of P patterns back to back,
// category c's at data + c * stripLength(P), and one natural-log scale per
// pattern shared by the categories. Each SlotArena operation
// (lik/slot_arena.h) is ONE item below and nothing else: a tip fill, or a
// combine that packs its branch matrices, prunes every category, rescales
// each pattern by an exact power of two and, on request, folds the new
// root's log-likelihood. Patterns after the prune are processed in stack
// chunks of kForestChunk, a whole number of tiles, so an item allocates
// nothing.
// ---------------------------------------------------------------------------

/// What every forest item reads besides its slots: one alignment's
/// patterns, model, rate categories and root frequencies (all borrowed).
struct ForestKernelData {
    const SitePatterns& patterns;
    const SubstModel& model;
    const RateCategories& rates;
    const BaseFreqs& pi;
};

inline constexpr std::size_t kForestChunk = 64;

/// Rescale patterns [p0, p0+n) of a combined slot by powers of two: with
/// e_p the binary exponent of the pattern's max over every category and
/// state (pow2Scale), its values are multiplied by 2^-e_p, which changes
/// exponents only and so is exact, and so[p] = sa[p] + sb[p] + e_p ln 2. A
/// pattern whose max is zero, subnormal or not finite keeps its values
/// (e_p = 0); a zero pattern then folds to -inf at the root. p0 is a
/// multiple of kForestChunk, so the chunk's tiles are contiguous in every
/// category strip; pad lanes are rescaled by their own maxima.
inline void rescaleForestChunk(double* data, std::size_t P, std::size_t C,
                               const double* sa, const double* sb, double* so,
                               std::size_t p0, std::size_t n) {
    alignas(kCacheLineBytes) double mx[4 * kForestChunk];
    alignas(kCacheLineBytes) double factor[kForestChunk];
    alignas(kCacheLineBytes) double logFactor[kForestChunk];
    const std::size_t len = stripLength(n);
    const double* first = data + stripIndex(p0, 0);
    for (std::size_t j = 0; j < len; ++j) mx[j] = first[j];
    for (std::size_t c = 1; c < C; ++c) {
        const double* v = data + c * stripLength(P) + stripIndex(p0, 0);
        for (std::size_t j = 0; j < len; ++j) mx[j] = v[j] > mx[j] ? v[j] : mx[j];
    }
    for (std::size_t t = 0; t < n; t += kTilePatterns) {
        const double* m = mx + stripIndex(t, 0);
        for (std::size_t l = 0; l < kTilePatterns; ++l) {
            const Pow2Scale s =
                pow2Scale(std::max(std::max(m[stripIndex(l, 0)], m[stripIndex(l, 1)]),
                                   std::max(m[stripIndex(l, 2)], m[stripIndex(l, 3)])));
            factor[t + l] = s.factor;
            logFactor[t + l] = s.exponent * std::numbers::ln2;
        }
    }
    for (std::size_t i = 0; i < n; ++i) so[p0 + i] = sa[p0 + i] + sb[p0 + i] + logFactor[i];
    for (std::size_t c = 0; c < C; ++c) {
        double* v = data + c * stripLength(P) + stripIndex(p0, 0);
        for (std::size_t t = 0; t < n; t += kTilePatterns) {
            double* tile = v + stripIndex(t, 0);
            for (std::size_t x = 0; x < 4; ++x)
                for (std::size_t l = 0; l < kTilePatterns; ++l)
                    tile[stripIndex(l, x)] *= factor[t + l];
        }
    }
}

/// Add the root terms of patterns [p0, p0+n) to the fold's eight lanes
/// (pattern p lands in lane p % 8):
///   w_p * [ log( sum_c v_c sum_X pi_X L_p,c(X) ) + s_p ].
/// Positive normal sites take the vectorized log; any other site keeps
/// the std::log / -inf path of the scalar reference.
inline void rootForestChunk(const ForestKernelData& k, const double* data,
                            const double* scale, std::size_t p0, std::size_t n,
                            double lanes[8]) {
    const std::size_t P = k.patterns.patternCount();
    const double pi0 = k.pi[0], pi1 = k.pi[1], pi2 = k.pi[2], pi3 = k.pi[3];
    alignas(kCacheLineBytes) double site[kForestChunk];
    alignas(kCacheLineBytes) double term[kForestChunk];
    // Whole tiles: the pad lanes' sites are never read.
    for (std::size_t i = 0; i < roundUpTo(n, kTilePatterns); ++i) site[i] = 0.0;
    for (std::size_t c = 0; c < k.rates.count(); ++c) {
        const double* v = data + c * stripLength(P) + stripIndex(p0, 0);
        const double wc = k.rates.weights[c];
        for (std::size_t t = 0; t < n; t += kTilePatterns) {
            const double* r = v + stripIndex(t, 0);
            for (std::size_t l = 0; l < kTilePatterns; ++l)
                site[t + l] += wc * (pi0 * r[stripIndex(l, 0)] + pi1 * r[stripIndex(l, 1)] +
                                     pi2 * r[stripIndex(l, 2)] + pi3 * r[stripIndex(l, 3)]);
        }
    }
    std::size_t irregular = 0;
    for (std::size_t i = 0; i < n; ++i) {
        term[i] = logPositiveNormal(site[i]);
        irregular += !isPositiveNormal(site[i]);
    }
    if (irregular != 0)
        for (std::size_t i = 0; i < n; ++i)
            if (!isPositiveNormal(site[i]))
                term[i] = site[i] > 0.0 ? std::log(site[i])
                                        : -std::numeric_limits<double>::infinity();
    const double* w = k.patterns.weightsData() + p0;
    const double* s = scale + p0;
    for (std::size_t i = 0; i < n; ++i) term[i] = w[i] * (term[i] + s[i]);
    // p0 is a multiple of 8, so lane l of every chunk holds patterns l mod 8.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (std::size_t l = 0; l < 8; ++l) lanes[l] += term[i + l];
    for (std::size_t l = 0; i + l < n; ++l) lanes[l] += term[i + l];
}

/// The fold's lanes in a fixed pairwise order.
inline double foldForestLanes(const double lanes[8]) {
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// Root factor of one forest slot, the log of its share of the forest
/// likelihood: sum_p w_p [ log( sum_c v_c sum_X pi_X L_p,c(X) ) + s_p ].
inline double forestRootLogLik(const ForestKernelData& k, const double* data,
                               const double* scale) {
    const std::size_t P = k.patterns.patternCount();
    double lanes[8] = {};
    for (std::size_t p0 = 0; p0 < P; p0 += kForestChunk)
        rootForestChunk(k, data, scale, p0, std::min(kForestChunk, P - p0), lanes);
    return foldForestLanes(lanes);
}

/// Tip item: indicator strips of tip `tip` for every category (all-ones
/// for unknown sites), zero scale, and the root factor into `rootLogL`
/// unless it is null.
inline void forestTipItem(const ForestKernelData& k, int tip, double* data,
                          double* scale, double* rootLogL) {
    const std::size_t P = k.patterns.patternCount();
    for (std::size_t c = 0; c < k.rates.count(); ++c)
        fillTipStrip(k.patterns.codesData(), k.patterns.sequenceCount(),
                     static_cast<std::size_t>(tip), data + c * stripLength(P), P);
    std::fill_n(scale, P, 0.0);
    if (rootLogL != nullptr) *rootLogL = forestRootLogLik(k, data, scale);
}

/// Combine item (Eq. 19 for one new node): per category, pack the branch
/// matrices of lenA and lenB, one matrix when the lengths are bit-equal
/// (a cherry's two tips share their node time), and prune; then rescale
/// every pattern (rescaleForestChunk) and, unless `rootLogL` is null, fold
/// the new root's factor into it. Returns the transition matrices it
/// computed: C or 2C.
inline std::size_t forestCombineItem(const ForestKernelData& k, const double* a,
                                     const double* sa, double lenA, const double* b,
                                     const double* sb, double lenB, double* out,
                                     double* so, double* rootLogL) {
    const std::size_t P = k.patterns.patternCount();
    const std::size_t C = k.rates.count();
    const std::size_t S = stripLength(P);
    const bool shared = std::bit_cast<std::uint64_t>(lenA) == std::bit_cast<std::uint64_t>(lenB);
    for (std::size_t c = 0; c < C; ++c) {
        TransMat ta, tb;
        ta.pack(k.model.transition(lenA * k.rates.rates[c]));
        if (!shared) tb.pack(k.model.transition(lenB * k.rates.rates[c]));
        pruneStrip(ta, shared ? ta : tb, a + c * S, b + c * S, out + c * S, P);
    }
    double lanes[8] = {};
    for (std::size_t p0 = 0; p0 < P; p0 += kForestChunk) {
        const std::size_t n = std::min(kForestChunk, P - p0);
        rescaleForestChunk(out, P, C, sa, sb, so, p0, n);
        if (rootLogL != nullptr) rootForestChunk(k, out, so, p0, n, lanes);
    }
    if (rootLogL != nullptr) *rootLogL = foldForestLanes(lanes);
    return shared ? C : 2 * C;
}

}  // namespace mpcgs
