// Persistent pattern-major partials arena: a chain's kept likelihood
// evaluation.
//
// One PartialsBuffer holds the complete pruning state of ONE genealogy:
// per-internal-node conditional likelihood strips, per-node scale
// exponents and packed transition matrices. Every MCMC chain keeps one
// holding its current state (for GMH, the generator that each proposal
// of a set reads). Everything is allocated once — 64-byte aligned,
// node-strided — and reused across every subsequent MCMC step; growing
// only happens if the genealogy shape or pattern count changes (it does
// not, along a chain). This replaces the seed's per-step `assign()` of
// the whole arena.
//
// Layout: partials for (category c, internal node i) start at
//   partialsData.data() + (c * internals + i) * patternStride * 4
// with patterns adjacent ([pattern][state], the strip-kernel layout), and
// scale exponents at (c * internals + i) * patternStride. patternStride is
// the pattern count rounded up so every node strip starts cache-aligned.
// Tip partials are genealogy-independent and live in the shared
// LikelihoodEngine, not here.
#pragma once

#include <cstddef>
#include <vector>

#include "lik/pruning_kernels.h"
#include "util/aligned.h"

namespace mpcgs {

struct PartialsBuffer {
    AlignedDoubles partialsData;  // categories x internals x patternStride*4
    AlignedDoubles scaleData;     // categories x internals x patternStride

    /// Packed transition matrices, indexed [c * nodeCount + child id];
    /// entries for the root are unused.
    std::vector<TransMat> tmat;

    std::size_t categories = 0;
    std::size_t tips = 0;
    std::size_t internals = 0;
    std::size_t patternStride = 0;
    bool primed = false;  ///< a full evaluate() has populated the arena

    /// Size (grow-only) for the given shape; contents are unspecified after
    /// a growth, and `primed` is reset if the shape changed.
    void ensure(std::size_t nCategories, std::size_t nTips, std::size_t nInternals,
                std::size_t stride);

    std::size_t nodeCount() const { return tips + internals; }

    /// Partials strip of internal node `id` (id >= tips) in category c.
    double* partials(std::size_t c, std::size_t id) {
        return partialsData.data() + (c * internals + (id - tips)) * patternStride * 4;
    }
    const double* partials(std::size_t c, std::size_t id) const {
        return partialsData.data() + (c * internals + (id - tips)) * patternStride * 4;
    }

    /// Scale-exponent strip of internal node `id` in category c.
    double* scale(std::size_t c, std::size_t id) {
        return scaleData.data() + (c * internals + (id - tips)) * patternStride;
    }
    const double* scale(std::size_t c, std::size_t id) const {
        return scaleData.data() + (c * internals + (id - tips)) * patternStride;
    }
};

}  // namespace mpcgs
