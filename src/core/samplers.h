// Concrete Sampler implementations binding the unified runtime interface
// (mcmc/sampler.h) to the genealogy problems: every strategy the driver
// offers is constructed here, behind one factory, with per-chain
// SplitMix64-derived RNG streams and full checkpoint support.
//
//   Strategy::Gmh        one GmhSampler iteration per tick (M samples)
//   Strategy::SerialMh   one MhChain step per tick
//   Strategy::MultiChain P lockstep MhChain steps per tick (P samples),
//                        parallel across the pool (LockstepChains,
//                        core/lockstep_chains.h)
//   Strategy::HeatedMh   one MC^3 sweep per tick (cold-chain sample),
//                        within-sweep stepping parallel across the pool
//
// Every strategy scores its proposals over per-chain arenas of the current
// states (the problems' region hook, core/genealogy_problem.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/posterior.h"
#include "lik/felsenstein.h"
#include "mcmc/sampler.h"
#include "par/thread_pool.h"

namespace mpcgs {

enum class Strategy {
    Gmh,        ///< multiple-proposal sampler (the paper's method)
    SerialMh,   ///< single serial MH chain (LAMARC baseline)
    MultiChain, ///< P independent MH chains, aggregated (§3 baseline)
    HeatedMh,   ///< Metropolis-coupled chains (LAMARC's heating feature)
};

/// Everything the factory needs to build one sampler (a strategy-relevant
/// subset of MpcgsOptions; the driver fills it per E-step).
struct SamplerSpec {
    Strategy strategy = Strategy::Gmh;
    std::uint64_t seed = 1;
    std::size_t gmhProposals = 32;             ///< Gmh: N proposals per set
    std::size_t gmhSamplesPerSet = 32;         ///< Gmh: M draws per set
    std::size_t chains = 4;                    ///< MultiChain: P
    std::vector<double> temperatures{1.0, 1.3, 1.8, 3.0};  ///< HeatedMh ladder
    std::size_t swapInterval = 10;             ///< HeatedMh: sweeps per swap
};

/// Streaming chain-major summary collector — the driver's sample sink.
/// Each sample is reduced to its IntervalSummary on arrival (§5.1.3 stores
/// nothing more than interval statistics), so no genealogy state is ever
/// buffered. Per-chain vectors make concurrent consumption lock-free under
/// the sink contract; chainMajor() concatenates them in chain order, which
/// is deterministic regardless of how chain execution interleaved.
class SummarySink final : public SampleSink {
  public:
    void beginRun(std::uint32_t chains) override {
        if (chains > perChain_.size()) perChain_.resize(chains);
    }
    void consume(const Genealogy& g, const SampleTag& tag) override {
        perChain_[tag.chain].push_back(IntervalSummary::fromGenealogy(g));
    }

    std::size_t total() const;
    std::vector<IntervalSummary> chainMajor() const;

    void save(CheckpointWriter& w) const override;
    void load(CheckpointReader& r) override;

  private:
    std::vector<std::vector<IntervalSummary>> perChain_;
};

/// Build the sampler for `spec` over P(D|G) * P(G|theta), warm-started
/// from `init`. `pool` parallelizes whatever the strategy can use it for
/// (GMH proposal fan-out, multi-chain rounds, MC^3 sweeps, serial-MH
/// pattern blocks); inside another launch of the same pool (one locus of
/// a multi-locus round) those launches run inline. Results are bitwise
/// identical for any pool width.
std::unique_ptr<Sampler> makeSampler(const SamplerSpec& spec, const DataLikelihood& lik,
                                     double theta, Genealogy init,
                                     ThreadPool* pool = nullptr);

}  // namespace mpcgs
