// Unified sampler runtime: the common interface every sampling strategy
// (GMH, serial MH, multi-chain, heated MC^3) runs behind, plus the
// streaming sample pipeline and the orchestrator that drives burn-in,
// sampling, convergence-driven stopping and checkpointing.
//
// Layering:
//
//   Sampler (abstract)        one tick() = one transition unit of the whole
//     |                       strategy (MH step / GMH proposal set / MC^3
//     |                       sweep / lockstep multi-chain round); emits
//     |                       zero or more chain-tagged samples to a sink
//   SampleSink (abstract)     streaming consumer; bounded memory, no
//     |                       buffer-then-replay
//   SamplerRun                burn-in -> sampling loop -> StoppingRule
//                             checks -> periodic checkpoint callbacks
//
// Sink concurrency contract: for a fixed chain id, consume() calls arrive
// in index order and never concurrently; calls for *different* chains may
// overlap (each chain runs on one pool worker). Implementations keep
// per-chain state disjoint and need no locking. The (chain, index) tag
// makes aggregate order deterministic without cross-chain synchronization.
//
// Determinism: every chain owns a SplitMix64-derived RNG stream
// (splitMix64At(seed, chain)), so results are bitwise invariant to the
// thread count, and serialized RNG states make checkpointed runs continue
// bitwise-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mcmc/diagnostics.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "util/stats.h"

namespace mpcgs {

class CheckpointWriter;
class CheckpointReader;
class StructuredGenealogy;

/// Provenance of one streamed sample.
struct SampleTag {
    std::uint32_t chain = 0;    ///< logical chain that produced the sample
    std::uint64_t index = 0;    ///< 0-based position within that chain
    double logPosterior = 0.0;  ///< unnormalized log pi of the sample
    std::uint32_t locus = 0;    ///< locus whose genealogy this is (multi-locus runs)
};

/// Streaming consumer of chain-tagged samples (see the concurrency
/// contract above).
class SampleSink {
  public:
    virtual ~SampleSink() = default;

    /// Called once before sampling starts (and again on resume) with the
    /// producer's chain count; implementations pre-size per-chain slots
    /// here (growing only — existing data is kept across resume).
    virtual void beginRun(std::uint32_t chains) { (void)chains; }

    virtual void consume(const Genealogy& g, const SampleTag& tag) = 0;

    /// Deme-labelled sample from a structured-coalescent sampler. The
    /// default forwards the underlying tree to consume(Genealogy), so
    /// label-agnostic sinks (convergence monitors, trace writers) work on
    /// structured runs unchanged; label-aware sinks override this.
    virtual void consume(const StructuredGenealogy& g, const SampleTag& tag);
};

/// Stamps a fixed locus id onto every tag before forwarding (not owning
/// the inner sink). Samplers are locus-agnostic and always emit locus 0;
/// the multi-locus runtime wraps each locus's sink pipeline in one of
/// these so any shared downstream consumer sees fully-qualified
/// (locus, chain, index) provenance.
class LocusTagSink final : public SampleSink {
  public:
    LocusTagSink(std::uint32_t locus, SampleSink* inner)
        : locus_(locus), inner_(inner) {}

    void beginRun(std::uint32_t chains) override { inner_->beginRun(chains); }
    void consume(const Genealogy& g, const SampleTag& tag) override {
        SampleTag stamped = tag;
        stamped.locus = locus_;
        inner_->consume(g, stamped);
    }
    void consume(const StructuredGenealogy& g, const SampleTag& tag) override {
        SampleTag stamped = tag;
        stamped.locus = locus_;
        inner_->consume(g, stamped);
    }

  private:
    std::uint32_t locus_;
    SampleSink* inner_;
};

/// Fans every sample out to several sinks (not owned).
class FanoutSink final : public SampleSink {
  public:
    void add(SampleSink* sink) {
        if (sink) sinks_.push_back(sink);
    }
    void beginRun(std::uint32_t chains) override {
        for (SampleSink* s : sinks_) s->beginRun(chains);
    }
    void consume(const Genealogy& g, const SampleTag& tag) override {
        for (SampleSink* s : sinks_) s->consume(g, tag);
    }
    void consume(const StructuredGenealogy& g, const SampleTag& tag) override {
        for (SampleSink* s : sinks_) s->consume(g, tag);
    }

  private:
    std::vector<SampleSink*> sinks_;
};

/// Online per-chain statistics and scalar traces: running mean/variance of
/// the log-posterior per chain plus the full per-chain trace the
/// convergence diagnostics need. Memory is one double per sample — bounded
/// by design compared to retaining genealogy states.
class ConvergenceMonitor final : public SampleSink {
  public:
    void beginRun(std::uint32_t chains) override;
    void consume(const Genealogy& g, const SampleTag& tag) override;

    std::uint32_t chainCount() const { return static_cast<std::uint32_t>(traces_.size()); }
    std::size_t minChainLength() const;
    std::size_t totalSamples() const;
    const std::vector<double>& trace(std::uint32_t chain) const { return traces_[chain]; }
    const RunningStats& chainStats(std::uint32_t chain) const { return stats_[chain]; }

    /// Diagnostics evaluate at most this many recent samples per chain, so
    /// the per-check cost stays bounded no matter how long the run grows
    /// (the stopping rule re-evaluates every few ticks; unwindowed ESS is
    /// O(n^2) for slowly mixing chains).
    static constexpr std::size_t kDiagnosticWindow = 4096;

    /// Potential scale reduction of the log-posterior: cross-chain
    /// Gelman-Rubin over the common (windowed) length for >= 2 chains,
    /// split-R-hat (first half vs second half) for a single chain.
    /// Returns +inf when there is too little data to estimate.
    double rhat() const;

    /// Pooled effective sample size: sum of per-chain ESS estimates. The
    /// autocorrelation time is estimated on the recent window and scaled
    /// to the full chain length (ESS = n / tau), so long well-mixed runs
    /// keep accumulating ESS while the estimate stays O(window) to compute.
    double pooledEss() const;

    void save(CheckpointWriter& w) const;
    void load(CheckpointReader& r);

  private:
    std::vector<std::vector<double>> traces_;
    std::vector<RunningStats> stats_;
};

/// Convergence-driven stopping: keep sampling until the cross-chain R-hat
/// drops below `rhatBelow` AND the pooled ESS reaches `essAtLeast`
/// (whichever of the two is enabled), or until the sample cap. Disabled
/// thresholds (<= 0) are ignored; with both disabled the rule never fires
/// and the run always uses the full cap.
struct StoppingRule {
    double rhatBelow = 0.0;               ///< require rhat() < this (0 = off)
    double essAtLeast = 0.0;              ///< require pooledEss() >= this (0 = off)
    std::size_t minSamplesPerChain = 64;  ///< no checks before this much data
    std::size_t checkInterval = 0;        ///< ticks between checks (0 = auto)

    bool enabled() const { return rhatBelow > 0.0 || essAtLeast > 0.0; }
    bool satisfied(const ConvergenceMonitor& m, double* rhatOut = nullptr,
                   double* essOut = nullptr) const;
};

/// Counters common to all strategies. `steps`/`accepted` generalize: MH
/// transitions vs accepted ones; GMH index draws vs draws that moved off
/// the generator. Swap counters apply to MC^3 only.
struct SamplerStats {
    std::size_t steps = 0;
    std::size_t accepted = 0;
    std::size_t swapsProposed = 0;
    std::size_t swapsAccepted = 0;

    double moveRate() const {
        return steps == 0 ? 0.0 : static_cast<double>(accepted) / static_cast<double>(steps);
    }
    double swapRate() const {
        return swapsProposed == 0
                   ? 0.0
                   : static_cast<double>(swapsAccepted) / static_cast<double>(swapsProposed);
    }
};

/// The unified sampler interface. One tick() advances the whole strategy by
/// its natural unit and, when a sink is supplied, emits that tick's
/// samples; a null sink is a burn-in tick (same chain dynamics, samples
/// discarded). save()/load() round-trip the complete state — chain
/// genealogies, log-posteriors, RNG streams, counters — for
/// bitwise-identical continuation.
class Sampler {
  public:
    virtual ~Sampler() = default;

    virtual std::uint32_t chainCount() const = 0;   ///< sample-producing chains
    virtual std::size_t samplesPerTick() const = 0; ///< samples emitted per sampling tick
    virtual void tick(SampleSink* sink) = 0;
    virtual const Genealogy& continuation() const = 0; ///< warm-start state
    virtual SamplerStats stats() const = 0;

    virtual void save(CheckpointWriter& w) const = 0;
    virtual void load(CheckpointReader& r) = 0;
};

/// Numeric-guardrail context shared by the run orchestrators: when
/// enabled, the freshly-appended log-posteriors of every sampling tick are
/// checked for finiteness in the serial section after the tick (never
/// inside a parallel region), and a non-finite value dumps the offending
/// chain state and raises NumericError (core/numeric_guard.h). theta and
/// seed only label the fault dump.
struct SamplerNumericGuard {
    bool enabled = false;
    double theta = 0.0;
    std::uint64_t seed = 0;
    std::string phase;  ///< extra dump context, e.g. "estimateTheta E-step"
};

/// What one sampling phase did.
struct SamplerRunReport {
    std::size_t samples = 0;     ///< samples emitted (including pre-resume)
    std::size_t ticks = 0;       ///< sampling ticks executed
    bool stoppedEarly = false;   ///< stopping rule fired before the cap
    double rhat = 0.0;           ///< last diagnostic values (0 = never evaluated)
    double ess = 0.0;
};

/// Orchestrates one sampling phase of any Sampler: burn-in ticks, streamed
/// sampling through the sink pipeline, stopping-rule checks at a fixed
/// tick cadence, and a periodic checkpoint callback (the owner serializes
/// its context plus the sampler at every invocation). Progress counters
/// are restorable so an interrupted phase resumes exactly where the last
/// snapshot left it.
class SamplerRun {
  public:
    struct Config {
        std::size_t burnInTicks = 0;
        std::size_t sampleTicks = 0;  ///< cap on sampling ticks
        StoppingRule stopping;
        /// Invoked every `checkpointInterval` ticks (and at the end of
        /// burn-in) with the progress counters; `stopped` records that the
        /// stopping rule already ended the phase. Empty = no checkpointing.
        std::function<void(std::size_t burnDone, std::size_t sampleDone, bool stopped)>
            checkpoint;
        std::size_t checkpointInterval = 0;  ///< ticks between snapshots (0 = auto)
        /// Polled at every tick boundary (RunSupervisor::stopCallback()).
        /// When it returns true the run writes one final forced checkpoint
        /// and raises InterruptedError; a later --resume continues
        /// bitwise-identically to the uninterrupted run. Empty = no
        /// cooperative stop.
        std::function<bool()> stopRequested;
        SamplerNumericGuard numeric;  ///< non-finite log-posterior guard
    };

    SamplerRun(Sampler& sampler, Config cfg);

    /// Resume progress bookkeeping from a snapshot (the sampler itself is
    /// restored separately via Sampler::load). A snapshot taken after the
    /// stopping rule fired resumes as already-complete — no extra ticks.
    void restoreProgress(std::size_t burnTicksDone, std::size_t sampleTicksDone,
                         bool stopped = false);

    /// Run to completion (cap or stopping rule). `monitor` is part of the
    /// sink pipeline and feeds the stopping rule; `sink` receives every
    /// sample as well.
    SamplerRunReport execute(SampleSink& sink, ConvergenceMonitor& monitor);

    std::size_t burnTicksDone() const { return burnDone_; }
    std::size_t sampleTicksDone() const { return sampleDone_; }

  private:
    Sampler& sampler_;
    Config cfg_;
    std::size_t burnDone_ = 0;
    std::size_t sampleDone_ = 0;
    bool stopped_ = false;
};

/// One locus's participants in a multi-locus run (none owned). Sink and
/// monitor are per-locus: convergence is judged locus by locus, and a
/// locus's samples never mix into another locus's summaries.
struct LocusSlot {
    Sampler* sampler = nullptr;
    SampleSink* sink = nullptr;
    ConvergenceMonitor* monitor = nullptr;
};

/// What one locus did during a multi-locus sampling phase.
struct LocusRunReport {
    std::size_t samples = 0;    ///< samples emitted (including pre-resume)
    std::size_t ticks = 0;      ///< sampling ticks executed
    bool stoppedEarly = false;  ///< this locus's stopping rule fired before the cap
    double rhat = 0.0;          ///< last diagnostic values (0 = never evaluated)
    double ess = 0.0;
};

struct MultiLocusReport {
    std::vector<LocusRunReport> loci;

    std::size_t totalSamples() const;
    /// True when every locus's stopping rule fired before the cap.
    bool allStoppedEarly() const;
};

/// Orchestrates one sampling phase across L independent loci: lockstep
/// rounds where every still-active locus advances one tick, per-locus
/// stopping-rule checks (a converged locus freezes while the rest keep
/// sampling; the phase ends when ALL loci are stopped or capped), and a
/// periodic checkpoint callback carrying every locus's progress.
///
/// Scheduling: with more than one slot, each round steps the loci in
/// parallel across the pool via the chain-affinity launch — the loci axis
/// is embarrassingly parallel, and per-locus state (sampler, sink,
/// monitor) is disjoint by construction. The slots' samplers must then be
/// built WITHOUT an inner pool (pool nesting is not supported); with a
/// single slot the round runs on the calling thread and the sampler may
/// use the pool internally, which is exactly the single-locus SamplerRun
/// configuration. Either way results are bitwise invariant to the worker
/// count: the parallel section only changes when loci step, never what
/// they compute.
///
/// For one slot this executes the identical tick/check/checkpoint sequence
/// as SamplerRun, so single-locus datasets reproduce the single-sampler
/// path bitwise.
class MultiLocusRun {
  public:
    struct Config {
        std::size_t burnInTicks = 0;
        std::size_t sampleTicks = 0;  ///< cap on sampling ticks per locus
        StoppingRule stopping;        ///< applied to every locus independently
        /// Invoked every `checkpointInterval` rounds (and at the end of
        /// burn-in and of the phase) with the global burn progress and the
        /// per-locus sampling progress/stopped latches.
        std::function<void(std::size_t burnDone, std::span<const std::uint64_t> sampleDone,
                           std::span<const std::uint8_t> stopped)>
            checkpoint;
        std::size_t checkpointInterval = 0;  ///< rounds between snapshots (0 = auto)
        ThreadPool* pool = nullptr;          ///< loci-parallel axis (>= 2 slots)
        /// Polled at every round boundary, in the serial section — same
        /// contract as SamplerRun::Config::stopRequested.
        std::function<bool()> stopRequested;
        SamplerNumericGuard numeric;  ///< non-finite log-posterior guard
    };

    MultiLocusRun(std::vector<LocusSlot> slots, Config cfg);

    /// Resume progress bookkeeping from a snapshot (samplers, sinks and
    /// monitors are restored separately by the owner).
    void restoreProgress(std::size_t burnTicksDone, std::span<const std::uint64_t> sampleTicksDone,
                         std::span<const std::uint8_t> stopped);

    /// Run to completion (every locus at its cap or stopped).
    MultiLocusReport execute();

  private:
    std::vector<LocusSlot> slots_;
    Config cfg_;
    std::size_t burnDone_ = 0;
    std::vector<std::uint64_t> sampleDone_;
    std::vector<std::uint8_t> stopped_;  ///< per-locus latch (u8: serialized + span-able)
};

}  // namespace mpcgs
