// Structured-coalescent sampler behind the unified runtime interface:
// P lockstep MH chains over deme-labelled genealogies, advanced in
// ChainScheduler rounds (one step + one tagged structured sample per chain
// per tick). Each chain owns a SplitMix64-derived Mt19937 stream and an
// arena holding its current state's likelihood evaluation (rebuilt after
// load()), and steps touch only per-chain state, so results are bitwise
// invariant to the worker count — the same determinism contract as every
// other strategy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coalescent/structured.h"
#include "core/structured_problem.h"
#include "mcmc/mh.h"
#include "mcmc/sampler.h"
#include "mcmc/schedule.h"
#include "par/thread_pool.h"

namespace mpcgs {

/// Streaming chain-major collector of structured sufficient statistics —
/// the structured run's sample sink (the §5.1.3 discipline generalized:
/// each labelled genealogy is reduced to its StructuredSummary on
/// arrival). Per-chain slots keep concurrent consumption lock-free under
/// the sink contract.
class StructuredSummarySink final : public SampleSink {
  public:
    explicit StructuredSummarySink(int demeCount = 2) : demeCount_(demeCount) {}

    void beginRun(std::uint32_t chains) override {
        if (chains > perChain_.size()) perChain_.resize(chains);
    }
    /// Structured sinks need labelled samples; feeding plain genealogies is
    /// a wiring bug and fails loudly.
    void consume(const Genealogy& g, const SampleTag& tag) override;
    void consume(const StructuredGenealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(StructuredSummary::fromGenealogy(g, demeCount_));
    }

    std::size_t total() const;
    std::vector<StructuredSummary> chainMajor() const;

    void save(CheckpointWriter& w) const;
    void load(CheckpointReader& r);

  private:
    int demeCount_;
    std::vector<std::vector<StructuredSummary>> perChain_;
};

/// The structured strategy: P independent MhChain<StructuredMhProblem>
/// chains in lockstep rounds, chain c on stream splitMix64At(seed, c + 1).
class StructuredChainsSampler final : public Sampler {
  public:
    StructuredChainsSampler(const DataLikelihood& lik, const MigrationModel& model,
                            StructuredGenealogy init, std::size_t chains,
                            std::uint64_t seed, double pathRefreshProb = 0.25,
                            ThreadPool* pool = nullptr);

    std::uint32_t chainCount() const override {
        return static_cast<std::uint32_t>(chains_.size());
    }
    std::size_t samplesPerTick() const override { return chains_.size(); }
    void tick(SampleSink* sink) override;
    const Genealogy& continuation() const override {
        return chains_.front().current().tree();
    }
    const StructuredGenealogy& structuredContinuation() const {
        return chains_.front().current();
    }
    SamplerStats stats() const override;

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    StructuredMhProblem problem_;
    ChainScheduler scheduler_;
    std::vector<MhChain<StructuredMhProblem>> chains_;
    std::uint64_t sampleRounds_ = 0;
};

}  // namespace mpcgs
