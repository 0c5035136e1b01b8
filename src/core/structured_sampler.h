// The structured strategy's pieces of the sampler runtime: its snapshot
// tag and its sample sink. The chains themselves are
// LockstepChains<StructuredMhProblem> (core/lockstep_chains.h): P lockstep
// MH chains over deme-labelled genealogies, one step and one tagged
// structured sample per chain per tick.
#pragma once

#include <cstdint>
#include <vector>

#include "coalescent/structured.h"
#include "mcmc/sampler.h"

namespace mpcgs {

/// Snapshot tag of the structured strategy ("STRC"): it opens the chains'
/// payload, so loading it into any other sampler (or vice versa) fails
/// loudly, and the estimator's fingerprint, which guards against feeding a
/// single-population snapshot to the structured driver.
inline constexpr std::uint32_t kStructuredSnapshotTag = 0x43525453u;

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

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    int demeCount_;
    std::vector<std::vector<StructuredSummary>> perChain_;
};

}  // namespace mpcgs
