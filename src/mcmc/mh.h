// Standard Metropolis-Hastings chain (§2.3) — the serial baseline the
// paper compares against (production LAMARC's sampling core).
//
// Problem concept:
//   using State;
//   double logPosterior(const State&) const;              // unnormalized
//   struct Proposal { State state; double logForward; double logReverse; };
//   Proposal propose(const State& cur, Rng& rng) const;
//
// The engine accepts with probability min(1, r), where
//   log r = (logPi(x') - logPi(x)) / T + logReverse - logForward,
// with T = 1 except for the heated chains of MC^3 (mcmc/heated.h). At
// T = 1 this reduces to the paper's Eq. 28 ratio P(D|G')/P(D|G) when the
// proposal density equals the conditional coalescent prior.
//
// Optional region hook (mcmc/region.h): the Proposal then also carries
// the `Region region` it changed. The chain keeps an arena holding its
// current state, scores each proposal over it on the chain's pool, and
// moves the arena only when a proposal is accepted, so a rejection costs
// one region evaluation and nothing else.
//
// Each step adds its proposal time to mcmc.propose_ns and its scoring
// time, arena evaluations included, to mcmc.likelihood_ns.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "mcmc/region.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"

namespace mpcgs {

template <class Problem>
class MhChain {
  public:
    using State = typename Problem::State;

    MhChain(const Problem& problem, State init, std::uint64_t seed)
        : MhChain(problem, std::move(init),
                  Mt19937(static_cast<std::uint32_t>(seed ^ (seed >> 32)))) {}

    /// Chain with an explicitly derived RNG stream — the sampler runtime
    /// passes Mt19937::fromSplitMix(splitMix64At(seed, chain)) here so
    /// every chain of an ensemble owns a decorrelated stream. `pool`
    /// parallelizes the region hook's evaluations over pattern blocks;
    /// results are identical for any pool width.
    MhChain(const Problem& problem, State init, Mt19937 rng, ThreadPool* pool = nullptr)
        : problem_(problem),
          pool_(pool),
          current_(std::move(init)),
          logPost_(problem_.logPosterior(current_)),
          rng_(std::move(rng)) {}

    /// One MH transition at temperature `temperature` (>= 1; the untempered
    /// posterior is tracked either way); returns true when the proposal
    /// was accepted.
    bool step(double temperature = 1.0) {
        auto prop = [&] {
            const obs::PhaseTimer timer(obs::Counter::McmcProposeNs);
            return problem_.propose(current_, rng_);
        }();
        const double logNew = score(prop);
        const double logR =
            (logNew - logPost_) / temperature + prop.logReverse - prop.logForward;
        ++steps_;
        if (logR >= 0.0 || std::log(rng_.uniformPos()) < logR) {
            if constexpr (RegionEvaluated<Problem>) {
                const obs::PhaseTimer timer(obs::Counter::McmcLikelihoodNs);
                problem_.moveGenerator(prop.region, prop.state, arena_, pool_);
            }
            current_ = std::move(prop.state);
            logPost_ = logNew;
            ++accepted_;
            return true;
        }
        return false;
    }

    /// Burn in `burnIn` transitions, then run `samples` further transitions,
    /// passing the (possibly repeated) post-transition state to `sink` —
    /// the rejected-proposal convention of §2.3 ("the current state will be
    /// sampled again").
    template <class Sink>
    void run(std::size_t burnIn, std::size_t samples, Sink&& sink) {
        for (std::size_t i = 0; i < burnIn; ++i) step();
        for (std::size_t i = 0; i < samples; ++i) {
            step();
            sink(current_);
        }
    }

    const State& current() const { return current_; }
    double currentLogPosterior() const { return logPost_; }
    std::size_t steps() const { return steps_; }
    std::size_t acceptedCount() const { return accepted_; }
    double acceptanceRate() const {
        return steps_ == 0 ? 0.0 : static_cast<double>(accepted_) / static_cast<double>(steps_);
    }

    /// RNG stream access for checkpointing.
    Mt19937& rng() { return rng_; }
    const Mt19937& rng() const { return rng_; }

    /// Restore a snapshotted chain: state, its log-posterior and the
    /// counters (the RNG is restored separately through rng()). The arena
    /// is re-evaluated at the next step.
    void restore(State s, double logPost, std::size_t steps, std::size_t accepted) {
        current_ = std::move(s);
        logPost_ = logPost;
        steps_ = steps;
        accepted_ = accepted;
        arenaCurrent_ = false;
    }

    /// Exchange current states, with their log-posteriors and arenas, with
    /// another chain of the same problem (an MC^3 swap). Streams and
    /// counters stay with their chains.
    void swapStates(MhChain& other) {
        std::swap(current_, other.current_);
        std::swap(logPost_, other.logPost_);
        std::swap(arena_, other.arena_);
        std::swap(arenaCurrent_, other.arenaCurrent_);
    }

  private:
    /// log pi of the proposal: over the arena for a problem with the region
    /// hook (evaluating the current state first unless the arena holds
    /// it), in full otherwise.
    template <class Proposal>
    double score(const Proposal& prop) {
        const obs::PhaseTimer timer(obs::Counter::McmcLikelihoodNs);
        if constexpr (RegionEvaluated<Problem>) {
            if (!arenaCurrent_) {
                problem_.evaluateGenerator(current_, arena_, pool_);
                arenaCurrent_ = true;
            }
            return problem_.logPosterior(prop.region, arena_, prop.state, pool_);
        } else {
            return problem_.logPosterior(prop.state);
        }
    }

    const Problem& problem_;
    ThreadPool* pool_;
    State current_;
    double logPost_;
    Mt19937 rng_;
    std::size_t steps_ = 0;
    std::size_t accepted_ = 0;
    typename detail::ArenaOf<Problem>::type arena_;  ///< the current state's evaluation
    bool arenaCurrent_ = false;  ///< arena_ holds current_ (reset by restore)
};

}  // namespace mpcgs
