// SlotArena — the partial-forest (SMC) likelihood executor.
//
// Callers hold opaque PARTIALS SLOTS in one arena and run operations
// against them —
//
//   tipInit(slot, tip, &logL)                          tip indicator vectors
//   combine(parent, childA, lenA, childB, lenB, &logL) Eq. 19 merge of two
//                                                      roots
//
// — each of which runs its fused lik/pruning_kernels.h item
// (forestTipItem / forestCombineItem) on the calling thread, so the result
// is visible on return. Each operation can also fold the log of its slot's
// root factor into a caller-owned double (null skips the fold). Storage is
// one 64-byte-aligned grow-only slab of conditional vectors plus one of
// per-pattern log scales, slot-strided. A slot's vectors are C category
// strips of 8-pattern tiles, state-major inside each tile (the
// strip-kernel layout, pruning_kernels.h stripIndex); each category's
// pattern count is rounded up to a whole tile, and the pad lanes, filled
// with 1.0 at the tips, never reach a scale or a root factor.
//
// Thread-safety: tipInit/combine may run concurrently from inside a
// parallel launch (the SMC propagation phase, the online rebuild),
// provided no two concurrent operations write the same parent slot and
// no operation reads a slot another one is writing. The SMC filter meets
// both by construction: each slot is written once per pass, and every
// child it reads was written at an earlier event. resizeSlots() is
// serial-context only. No operation moves partials between slots; callers
// that need a slot's content elsewhere share the handle
// (smc/particle_cloud.h).
//
// Execution counters (combine ops, matrices requested vs computed) live in
// the metrics registry (obs/metrics.h, lik.* taxonomy). A combine requests
// 2C transition matrices and computes C of them when its two branch
// lengths are bit-equal, else all 2C; combines never share matrices with
// one another. In a filter pass the bit-equal pairs are cherries; in the
// online rebuild, particles with identical trees compute the same
// matrices once each.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lik/felsenstein.h"
#include "lik/pruning_kernels.h"
#include "util/aligned.h"

namespace mpcgs {

class SlotArena {
  public:
    /// Opaque handle to one partials buffer (conditional likelihood vectors
    /// of one live subtree root).
    using Slot = std::uint32_t;

    /// An empty arena over the pattern data / substitution model / rate
    /// categories of `lik`, which must outlive it.
    explicit SlotArena(const DataLikelihood& lik);

    const std::vector<std::string>& tipNames() const {
        return forest_.patterns.sequenceNames();
    }

    /// Make `n` slots available (contents unspecified; grow-only storage,
    /// so shrinking or re-requesting a fitting size never reallocates).
    void resizeSlots(std::size_t n);
    std::size_t slotCount() const { return slots_; }

    /// Fill `dst` with tip `tip`'s indicator vectors; `rootLogL` (may be
    /// null) receives the tip's root factor.
    void tipInit(Slot dst, int tip, double* rootLogL);
    /// Combine two live roots through branch lengths lenA/lenB into
    /// `parent`; `rootLogL` (may be null) receives the new root's factor,
    /// sum_p w_p log(sum_c v_c sum_X pi_X L_p,c(X)). Counts the op and its
    /// matrices in the registry.
    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                 double* rootLogL);

    /// Raw views of a slot's conditional vectors, pad lanes included, and
    /// its per-pattern log scale (valid until the next resizeSlots).
    std::span<const double> slotData(Slot slot) const { return {dataPtr(slot), dataLen_}; }
    std::span<const double> slotScale(Slot slot) const {
        return {scalePtr(slot), forest_.patterns.patternCount()};
    }

  private:
    double* dataPtr(Slot s) { return data_.data() + s * dataLen_; }
    const double* dataPtr(Slot s) const { return data_.data() + s * dataLen_; }
    double* scalePtr(Slot s) { return scale_.data() + s * scaleStride_; }
    const double* scalePtr(Slot s) const { return scale_.data() + s * scaleStride_; }

    const ForestKernelData forest_;
    std::size_t dataLen_ = 0;  ///< doubles of one slot's vectors: C strips of whole
                               ///< tiles, so every slot starts cache-aligned
    std::size_t scaleStride_ = 0;
    std::size_t slots_ = 0;
    AlignedDoubles data_;
    AlignedDoubles scale_;
};

}  // namespace mpcgs
