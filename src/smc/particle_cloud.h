// ParticleCloud — the state container of the genealogy particle filter.
//
// N particles, each a partially-built genealogy (a forest of live subtree
// roots, growing coalescence-by-coalescence toward a full tree), plus the
// cloud-level weight machinery: 64-byte-aligned log-weight storage,
// log-space normalization (util/logspace), ESS, and ancestor-indexed
// resampling under any of the four schemes in smc/resampling.h.
//
// Conditional-likelihood state lives in a LikelihoodBackend
// (lik/lik_backend.h): a particle's live roots reference backend-owned
// partials SLOTS rather than carrying their own vectors. The slot map is
// static for a whole pass —
//
//   tip slots      [0, tips): shared read-only by every particle,
//   internal slots tips + p*(tips-1) + e: written at event e by the
//                  particle at index p,
//
// — so the backend holds tips + N*(tips-1) slots and propagation never
// allocates.
//
// Write-once rule: every internal slot is written exactly once per pass,
// at its event, and never again. A slot written at an earlier event is
// therefore immutable, and particles SHARE slots instead of owning them:
// a particle is only handles (its live roots' slots, their cached root
// logL, its last event time). Resampling copies those handles from the
// ancestor — next[i] = cur[ancestry[i]] into a second pre-sized particle
// array, then a swap — and no partials move in the backend. Offspring of
// one ancestor read the same slots until each writes its own next event.
//
// Merge records: genealogies are not stored per particle either. Each
// internal slot carries one write-once record {child slot A, child slot
// B, node time}, written with the slot's combine by the same particle.
// Following the records down from a particle's root slot recovers its
// whole genealogy, so a Genealogy is built only where one is consumed
// (genealogy()): the node of event e gets id tips + e, and its children
// keep the order the merge linked them in.
//
// Determinism contract (mirrors the sampler runtime): every particle SLOT
// owns a fixed SplitMix64-derived Mt19937 stream for the whole pass.
// Resampling copies particle STATES between indices but never moves the
// streams, and propagation touches only index-local state, so a cloud
// stepped thread-parallel over particle blocks (par/kernel.h
// launchBlocked) is bitwise invariant to the worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lik/lik_backend.h"
#include "phylo/tree.h"
#include "rng/mt19937.h"
#include "smc/resampling.h"
#include "util/aligned.h"

namespace mpcgs {

/// One particle: a forest over n tips, held as handles. Live roots
/// reference their subtree partials by backend slot and cache their root
/// log-likelihood so one coalescence costs a single combine().
struct Particle {
    std::vector<LikelihoodBackend::Slot> slots;  ///< live subtree roots
    std::vector<double> rootLogL;                ///< parallel to slots
    double lastEventTime = 0.0;  ///< most ancient coalescence so far

    int lineageCount() const { return static_cast<int>(slots.size()); }
};

/// The write-once record of one internal slot: the coalescence that
/// produced it.
struct MergeRecord {
    LikelihoodBackend::Slot childA = 0;  ///< first linked child
    LikelihoodBackend::Slot childB = 0;  ///< second linked child
    double time = 0.0;                   ///< node time of the merge
};

class ParticleCloud {
  public:
    using Slot = LikelihoodBackend::Slot;

    /// A cloud of `n` particles over `backend`'s alignment tips, every
    /// particle the all-tips forest, weights uniform. Sizes the backend's
    /// slot pool, batches the tip initializations through one flush on
    /// `pool` and seeds the slot streams in one launch on it. Slot i's RNG
    /// stream is splitMix64At(passSeed, i + 1); stream 0 is reserved for
    /// the cloud-level draws (resampling, final genealogy selection).
    ParticleCloud(std::size_t n, LikelihoodBackend& backend, int tipCount,
                  std::uint64_t passSeed, ThreadPool* pool = nullptr);

    std::size_t size() const { return particles_.size(); }
    Particle& particle(std::size_t i) { return particles_[i]; }
    const Particle& particle(std::size_t i) const { return particles_[i]; }
    Mt19937& slotRng(std::size_t i) { return slotRngs_[i]; }
    Mt19937& hostRng() { return hostRng_; }

    /// Backend slot written by particle `p` at coalescence event `e` (in
    /// [0, tips-1)); the pass-static write target.
    Slot internalSlot(std::size_t p, int e) const {
        return static_cast<Slot>(tipCount_ + p * (tipCount_ - 1) +
                                 static_cast<std::size_t>(e));
    }

    /// Record the merge that produces internal slot `parent`. Called once
    /// per slot per pass, by the particle that writes the slot; safe to
    /// call concurrently for distinct slots.
    void recordMerge(Slot parent, Slot childA, Slot childB, double time) {
        merges_[parent - tipCount_] = {childA, childB, time};
    }

    /// Node time of the subtree in `slot`: 0 for tips, else its merge time.
    double slotTime(Slot slot) const {
        return slot < tipCount_ ? 0.0 : merges_[slot - tipCount_].time;
    }

    /// Build particle `p`'s genealogy from the merge records. The particle
    /// must be complete (one live root).
    Genealogy genealogy(std::size_t p) const;

    /// The log of the forest likelihood every particle shares at step 0
    /// (the deterministic initial state's weight — part of logZ).
    double initialLogForestLikelihood() const { return logL0_; }

    std::span<double> logWeights() { return {logW_.data(), particles_.size()}; }
    std::span<const double> logWeights() const { return {logW_.data(), particles_.size()}; }

    /// Normalize the log-weights in place (subtract their logSumExp) and
    /// refresh the cached linear probabilities; returns the logSumExp.
    double normalizeWeights();

    /// Linear-space normalized weights (valid after normalizeWeights()).
    std::span<const double> probabilities() const { return probs_; }

    /// ESS of the current normalized weights.
    double ess() const { return weightEss(probs_); }

    /// Resample ancestors under `scheme` from the current probabilities
    /// (drawn with the host stream), give every particle its ancestor's
    /// handles, and reset the weights to uniform. Slot RNG streams stay
    /// put. Both particle arrays are pre-sized: steady-state resampling
    /// allocates nothing.
    void resample(ResamplingScheme scheme);

  private:
    /// Genealogy node id of a slot's subtree root: tips keep their index,
    /// the internal slot of event e is node tips + e.
    NodeId nodeOf(Slot s) const {
        return static_cast<NodeId>(
            s < tipCount_ ? s : tipCount_ + (s - tipCount_) % (tipCount_ - 1));
    }

    LikelihoodBackend& backend_;
    std::size_t tipCount_ = 0;
    std::vector<Particle> particles_;
    std::vector<Particle> next_;  ///< resample target, swapped with particles_
    std::vector<MergeRecord> merges_;  ///< one per internal slot
    std::vector<Mt19937> slotRngs_;
    Mt19937 hostRng_;
    AlignedDoubles logW_;
    std::vector<double> probs_;
    std::vector<std::uint32_t> ancestry_;  ///< resample scratch
    double logL0_ = 0.0;
};

}  // namespace mpcgs
