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
//   SamplerRun                one or more samplers (slots) in lockstep:
//                             burn-in -> sampling rounds -> per-slot
//                             StoppingRule checks -> periodic checkpoint
//                             callbacks handing the run to its owner
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
//
// Snapshots: SamplerRun is the one place that writes and reads a phase —
// its progress words inside the owner's context section, then every
// slot's sampler, sink and monitor sections. An estimator's snapshot is
// its fingerprint and context around SamplerRun::save().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mcmc/diagnostics.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"

namespace mpcgs {

class CheckpointWriter;
class CheckpointReader;
class StructuredGenealogy;

/// Provenance of one streamed sample.
struct SampleTag {
    std::uint32_t chain = 0;    ///< logical chain that produced the sample
    std::uint64_t index = 0;    ///< 0-based position within that chain
    double logPosterior = 0.0;  ///< unnormalized log pi of the sample
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

    /// What the sink has collected so far, for a resumed phase to continue
    /// from. The default keeps nothing (fan-outs, trace writers).
    virtual void save(CheckpointWriter& w) const { (void)w; }
    virtual void load(CheckpointReader& r) { (void)r; }
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

/// Per-chain scalar traces: the full log-posterior trace of every chain,
/// which the convergence diagnostics read. Memory is one double per
/// sample — bounded by design compared to retaining genealogy states.
class ConvergenceMonitor final : public SampleSink {
  public:
    void beginRun(std::uint32_t chains) override;
    void consume(const Genealogy& g, const SampleTag& tag) override;

    std::uint32_t chainCount() const { return static_cast<std::uint32_t>(traces_.size()); }
    std::size_t minChainLength() const;
    std::size_t totalSamples() const;
    const std::vector<double>& trace(std::uint32_t chain) const { return traces_[chain]; }

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

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    std::vector<std::vector<double>> traces_;
};

/// Convergence-driven stopping: keep sampling until the cross-chain R-hat
/// drops below `rhatBelow` AND the pooled ESS reaches `essAtLeast`
/// (whichever of the two is enabled), or until the sample cap. Disabled
/// thresholds (<= 0) are ignored; with both disabled the rule never fires
/// and the run always uses the full cap. SamplerRun checks the rule every
/// max(1, sampleTicks / 64) ticks.
struct StoppingRule {
    double rhatBelow = 0.0;               ///< require rhat() < this (0 = off)
    double essAtLeast = 0.0;              ///< require pooledEss() >= this (0 = off)
    std::size_t minSamplesPerChain = 64;  ///< no checks before this much data

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

/// Numeric-guardrail context of a run: when enabled, the freshly-appended
/// log-posteriors of every sampling tick are checked for finiteness in the
/// serial section after the round (never inside a parallel region), and a
/// non-finite value dumps the offending chain state and raises
/// NumericError (core/numeric_guard.h). theta and seed only label the
/// fault dump.
struct SamplerNumericGuard {
    bool enabled = false;
    double theta = 0.0;
    std::uint64_t seed = 0;
    std::string phase;  ///< extra dump context, e.g. "estimateTheta E-step"
};

/// One sampler's participants in a run (none owned). Sink and monitor are
/// per slot: convergence is judged slot by slot, and a slot's samples
/// never mix into another slot's summaries.
struct RunSlot {
    Sampler* sampler = nullptr;
    SampleSink* sink = nullptr;  ///< null: the samples feed the monitor only
    ConvergenceMonitor* monitor = nullptr;
    std::string suffix;  ///< ends the slot's snapshot section names (".0")
};

/// What one slot did during a sampling phase.
struct SamplerRunReport {
    std::size_t samples = 0;    ///< samples emitted (including pre-resume)
    std::size_t ticks = 0;      ///< sampling ticks executed
    bool stoppedEarly = false;  ///< the slot's stopping rule fired before the cap
    double rhat = 0.0;          ///< last diagnostic values (0 = never evaluated)
    double ess = 0.0;
};

/// Orchestrates one sampling phase over one or more slots: a single
/// sampler (one locus, the structured chains, PMMH) or one sampler per
/// locus of a multi-locus run. Lockstep rounds advance every still-active
/// slot by one tick: burn-in ticks first, then sampling ticks streamed
/// through each slot's sink and monitor. Each slot's stopping rule is
/// checked at a fixed tick cadence; a converged slot freezes while the
/// rest keep sampling, and the phase ends when every slot is stopped or
/// capped. A periodic checkpoint callback hands the run to its owner,
/// whose snapshot holds the run's save(), so an interrupted phase resumes
/// through load() exactly where the last snapshot left it.
///
/// Scheduling: a round is one launchChains over the slots. A single slot
/// runs on the calling thread without claiming the pool, so its sampler's
/// own launches get the whole pool; with several slots each one is a unit
/// of pool work, and its sampler's launches run inline on the worker
/// stepping it. Either way results are bitwise invariant to the worker
/// count: the parallel section only changes when slots step, never what
/// they compute.
class SamplerRun {
  public:
    struct Config {
        std::size_t burnInTicks = 0;
        std::size_t sampleTicks = 0;  ///< cap on sampling ticks per slot
        StoppingRule stopping;        ///< applied to every slot independently
        /// Invoked every `checkpointInterval` rounds (and at the end of
        /// burn-in and of the phase) with this run, for the owner to write
        /// a snapshot around its save(). Empty = no checkpointing.
        std::function<void(const SamplerRun&)> checkpoint;
        std::size_t checkpointInterval = 0;  ///< rounds between snapshots (0 = auto)
        ThreadPool* pool = nullptr;          ///< runs the slots of a round
        /// Polled at every tick boundary, in the serial section
        /// (RunSupervisor::stopCallback()). When it returns true the run
        /// writes one final forced checkpoint and raises InterruptedError;
        /// a later --resume continues bitwise-identically to the
        /// uninterrupted run. Empty = no cooperative stop.
        std::function<bool()> stopRequested;
        SamplerNumericGuard numeric;  ///< non-finite log-posterior guard
    };

    SamplerRun(std::vector<RunSlot> slots, Config cfg);

    /// Write the phase: into the caller's open section, the burn ticks
    /// done and, per slot, the sampling ticks done (u64) and the stopped
    /// latch (u32); then one section per slot and kind, grouped by kind
    /// (every sampler, every sink, every monitor; a slot without a sink
    /// has no sink section), each named for its kind plus the slot's
    /// suffix.
    void save(CheckpointWriter& w) const;

    /// Read what save() wrote into this run's samplers, sinks and monitors,
    /// and resume its progress, clamped to the configured caps. A slot
    /// whose snapshot was taken after its stopping rule fired resumes as
    /// already complete — no extra ticks. Pre-v5 files read in the same
    /// order, unframed. Throws ResumeError on an unreadable snapshot.
    void load(CheckpointReader& r);

    /// Run to completion (every slot at its cap or stopped); one report
    /// per slot.
    std::vector<SamplerRunReport> execute();

  private:
    std::vector<RunSlot> slots_;
    Config cfg_;
    std::size_t burnDone_ = 0;
    std::vector<std::uint64_t> sampleDone_;
    std::vector<std::uint8_t> stopped_;  ///< per-slot latch
};

}  // namespace mpcgs
