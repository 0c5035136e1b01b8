// The lockstep chain ensemble: P independent MhChains over one MH problem,
// advanced together one step per tick across the pool, with one tagged
// sample per chain per sampling tick. It runs the multi-chain §3 baseline
// (MhGenealogyProblem) and the structured strategy (StructuredMhProblem).
// Chain c draws from stream splitMix64At(seed, c + 1) and keeps its own
// likelihood arena (rebuilt after load()); a step touches only its chain's
// state, so results are bitwise invariant to the worker count.
//
// Snapshot payload: u32 tag | u64 chain count | one chain record per chain
// (state, log-posterior, steps, accepts, RNG) | u64 sampling rounds. The
// MC^3 sampler (core/samplers.cc) writes its chains through the same
// record.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/structured_problem.h"
#include "mcmc/checkpoint.h"
#include "mcmc/mh.h"
#include "mcmc/sampler.h"
#include "par/kernel.h"
#include "rng/splitmix.h"
#include "util/error.h"

namespace mpcgs {

// Chain-state payloads; a labelled genealogy reads back against its
// problem's deme count.
inline void writeChainState(CheckpointWriter& w, const Genealogy& g) { writeGenealogy(w, g); }
inline void writeChainState(CheckpointWriter& w, const StructuredGenealogy& g) {
    writeStructuredGenealogy(w, g);
}
inline Genealogy readChainState(CheckpointReader& r, const MhGenealogyProblem&) {
    return readGenealogy(r);
}
inline StructuredGenealogy readChainState(CheckpointReader& r, const StructuredMhProblem& p) {
    return readStructuredGenealogy(r, p.model().demeCount());
}

/// One chain's snapshot record: state, log-posterior, steps, accepts, RNG.
template <class Problem>
void writeChainRecord(CheckpointWriter& w, const MhChain<Problem>& c) {
    writeChainState(w, c.current());
    w.f64(c.currentLogPosterior());
    w.u64(c.steps());
    w.u64(c.acceptedCount());
    writeRng(w, c.rng());
}

/// Restore `c` from its record; its arena is re-evaluated at the next step.
template <class Problem>
void readChainRecord(CheckpointReader& r, MhChain<Problem>& c, const Problem& problem) {
    auto state = readChainState(r, problem);
    const double logPost = r.f64();
    const std::size_t steps = r.u64();
    const std::size_t accepted = r.u64();
    c.restore(std::move(state), logPost, steps, accepted);
    readRng(r, c.rng());
}

template <class Problem>
class LockstepChains final : public Sampler {
  public:
    using State = typename Problem::State;

    /// `chains` (>= 1) chains warm-started from `init`; a labelled `init`
    /// must be consistent with the problem's deme count. `tag` opens the
    /// snapshot payload, so loading another strategy's payload fails
    /// loudly. `pool` runs the chains of a tick.
    LockstepChains(Problem problem, const State& init, std::size_t chains, std::uint64_t seed,
                   std::uint32_t tag, ThreadPool* pool = nullptr)
        : problem_(std::move(problem)), tag_(tag), pool_(pool) {
        require(chains >= 1, "LockstepChains: need at least one chain");
        if constexpr (std::is_same_v<State, StructuredGenealogy>)
            init.validate(problem_.model().demeCount());
        chains_.reserve(chains);
        for (std::size_t c = 0; c < chains; ++c)
            chains_.emplace_back(problem_, init,
                                 Mt19937::fromSplitMix(splitMix64At(seed, c + 1)), pool);
    }
    LockstepChains(const LockstepChains&) = delete;  // the chains refer to problem_
    LockstepChains& operator=(const LockstepChains&) = delete;

    std::uint32_t chainCount() const override {
        return static_cast<std::uint32_t>(chains_.size());
    }
    std::size_t samplesPerTick() const override { return chains_.size(); }

    void tick(SampleSink* sink) override {
        launchChains(pool_, chains_.size(), [&](std::size_t c) {
            chains_[c].step();
            if (sink)
                sink->consume(chains_[c].current(),
                              SampleTag{static_cast<std::uint32_t>(c), sampleRounds_,
                                        chains_[c].currentLogPosterior()});
        });
        if (sink) ++sampleRounds_;
    }

    const Genealogy& continuation() const override { return treeOf(front()); }
    /// Chain 0's current state (the next E-step's warm start).
    const State& front() const { return chains_.front().current(); }

    SamplerStats stats() const override {
        SamplerStats s;
        for (const auto& c : chains_) {
            s.steps += c.steps();
            s.accepted += c.acceptedCount();
        }
        return s;
    }

    void save(CheckpointWriter& w) const override {
        w.u32(tag_);
        w.u64(chains_.size());
        for (const auto& c : chains_) writeChainRecord(w, c);
        w.u64(sampleRounds_);
    }

    void load(CheckpointReader& r) override {
        if (r.u32() != tag_) throw CheckpointError("snapshot was written by a different strategy");
        if (r.u64() != chains_.size())
            throw CheckpointError("snapshot chain count does not match configuration");
        for (auto& c : chains_) readChainRecord(r, c, problem_);
        sampleRounds_ = r.u64();
    }

  private:
    Problem problem_;
    std::uint32_t tag_;
    ThreadPool* pool_;
    std::vector<MhChain<Problem>> chains_;
    std::uint64_t sampleRounds_ = 0;
};

}  // namespace mpcgs
