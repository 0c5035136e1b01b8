// Pluggable likelihood backend — BEAGLE-style batched operation execution
// for the partial-forest (SMC) likelihood path.
//
// Callers never evaluate partials directly: they allocate backend-owned
// PARTIALS SLOTS, enqueue operations against them —
//
//   tipInit(slot, tip, &logL)                          tip indicator vectors
//   combine(parent, childA, lenA, childB, lenB, &logL) Eq. 19 merge of two
//                                                      roots
//
// — and then flush() once. Each operation can also fold the log of its
// slot's root factor into a caller-owned double (null skips the fold).
// The contract: operation RESULTS are guaranteed visible only after
// flush(); a backend is free to execute eagerly at enqueue time
// (ArenaBackend) or to buffer a whole generation of operations from every
// particle and execute them as one flat launch (BatchedBackend). Backends
// affect SCHEDULING only, never values: every operation is one fused item
// of lik/pruning_kernels.h (forestTipItem / forestCombineItem) called
// through the one compiled copy in SlotArenaBackend, so results are
// bitwise identical across backends and thread counts. This is the seam
// where a GPU or distributed backend plugs in later without touching
// sampler code.
//
// Thread-safety: tipInit/combine may be called concurrently from inside a
// parallel launch (the SMC propagation phase), provided no two concurrent
// operations write the same parent slot and a batch never chains
// dependent operations (a combine's children must be tips or slots
// written before the last flush). The SMC filter meets both by
// construction: each slot is written once per pass, and every child it
// reads was written by an earlier flush. flush() and resizeSlots() are
// serial-context only. No operation moves partials between slots; callers
// that need a slot's content elsewhere share the handle
// (smc/particle_cloud.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lik/felsenstein.h"
#include "lik/pruning_kernels.h"
#include "par/thread_pool.h"
#include "util/aligned.h"

namespace mpcgs {

enum class LikBackendKind { Arena, Batched };

/// Backends are scheduling-neutral, so the faster batched execution is the
/// default; `--lik-backend arena` selects the eager reference execution.
inline constexpr LikBackendKind kDefaultLikBackend = LikBackendKind::Batched;

const char* likBackendName(LikBackendKind kind);

/// Parse "arena" | "batched"; throws ConfigError listing the choices.
LikBackendKind parseLikBackend(const std::string& name);

// Execution counters (flushes, flush time, combine ops, matrices
// requested vs computed) live in the metrics registry (obs/metrics.h,
// lik.* taxonomy): arm the registry and read obs::snapshot() — there is
// no per-backend stats copy. A combine requests 2C transition matrices
// and computes C of them when its two branch lengths are bit-equal, else
// all 2C; combines never share matrices with one another. In a filter
// pass the bit-equal pairs are cherries; in the online rebuild, particles
// with identical trees compute the same matrices once each.

class LikelihoodBackend {
  public:
    /// Opaque handle to one backend-owned partials buffer (conditional
    /// likelihood vectors of one live subtree root).
    using Slot = std::uint32_t;

    virtual ~LikelihoodBackend() = default;

    virtual LikBackendKind kind() const = 0;
    const char* name() const { return likBackendName(kind()); }

    // --- problem shape (from the wrapped DataLikelihood) -------------------
    virtual std::size_t patternCount() const = 0;
    virtual std::size_t categoryCount() const = 0;
    virtual const std::vector<std::string>& tipNames() const = 0;

    // --- slot pool ---------------------------------------------------------
    /// Make `n` slots available (contents unspecified; grow-only storage,
    /// so shrinking or re-requesting a fitting size never reallocates).
    virtual void resizeSlots(std::size_t n) = 0;
    virtual std::size_t slotCount() const = 0;

    // --- operation queue ---------------------------------------------------
    /// Fill `dst` with tip `tip`'s indicator vectors; `rootLogL` (may be
    /// null) receives the tip's root factor after the flush.
    virtual void tipInit(Slot dst, int tip, double* rootLogL) = 0;
    /// Combine two live roots through branch lengths lenA/lenB into
    /// `parent`; `rootLogL` (may be null) receives the new root's factor,
    /// sum_p w_p log(sum_c v_c sum_X pi_X L_p,c(X)), after the flush.
    virtual void combine(Slot parent, Slot childA, double lenA, Slot childB,
                         double lenB, double* rootLogL) = 0;
    /// Execute everything queued since the last flush; on return all
    /// enqueued results are visible. Uses `pool` for the batch launches
    /// (nullptr = serial).
    virtual void flush(ThreadPool* pool) = 0;

    // --- slot contents (online rebuild, diagnostics, tests) ----------------
    /// Raw views of a slot's conditional vectors / per-pattern log scale
    /// (valid until the next resizeSlots). CPU backends expose their arena
    /// directly; a device backend would stage through a host mirror.
    virtual std::span<const double> slotData(Slot slot) const = 0;
    virtual std::span<const double> slotScale(Slot slot) const = 0;
};

/// Construct a backend of `kind` over the pattern data / substitution
/// model / rate categories of `lik` (which must outlive the backend).
std::unique_ptr<LikelihoodBackend> makeLikelihoodBackend(LikBackendKind kind,
                                                         const DataLikelihood& lik);

namespace detail {

/// Shared CPU slot storage: one 64-byte-aligned grow-only slab of
/// conditional vectors plus one of per-pattern log scales, slot-strided,
/// and the one compiled copy of the operation items. Both CPU backends
/// derive from this; they differ only in WHEN they run an item.
class SlotArenaBackend : public LikelihoodBackend {
  public:
    explicit SlotArenaBackend(const DataLikelihood& lik);

    std::size_t patternCount() const final { return forest_.patterns.patternCount(); }
    std::size_t categoryCount() const final { return forest_.rates.count(); }
    const std::vector<std::string>& tipNames() const final {
        return forest_.patterns.sequenceNames();
    }

    void resizeSlots(std::size_t n) override;
    std::size_t slotCount() const final { return slots_; }

    std::span<const double> slotData(Slot slot) const final {
        return {dataPtr(slot), dataLen_};
    }
    std::span<const double> slotScale(Slot slot) const final {
        return {scalePtr(slot), forest_.patterns.patternCount()};
    }

  protected:
    /// Run one operation now (forestTipItem / forestCombineItem on this
    /// arena's slots). combineItem also counts the op and its matrices in
    /// the registry. Safe to call concurrently for distinct parents.
    void tipItem(Slot dst, int tip, double* rootLogL);
    void combineItem(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                     double* rootLogL);

    double* dataPtr(Slot s) { return data_.data() + s * dataStride_; }
    const double* dataPtr(Slot s) const { return data_.data() + s * dataStride_; }
    double* scalePtr(Slot s) { return scale_.data() + s * scaleStride_; }
    const double* scalePtr(Slot s) const { return scale_.data() + s * scaleStride_; }

    const ForestKernelData forest_;
    std::size_t dataLen_ = 0;     ///< doubles of one slot's vectors (C*P*4)
    std::size_t dataStride_ = 0;  ///< dataLen_ rounded up to the cache line
    std::size_t scaleStride_ = 0;
    std::size_t slots_ = 0;
    AlignedDoubles data_;
    AlignedDoubles scale_;
};

}  // namespace detail

}  // namespace mpcgs
