// Metropolis-coupled MCMC (MC^3, "heated chains") — the mixing aid the
// LAMARC package runs alongside its sampler and a natural baseline for the
// paper's multi-chain discussion (§2.3, §3): several chains explore
// tempered versions pi(x)^{1/T} of the posterior and periodically propose
// to swap states; only the cold chain (T = 1) is sampled.
//
// Each chain is an MhChain stepping at its temperature, with a
// SplitMix64-derived Mt19937 stream, and swap decisions draw from a
// dedicated stream, so (a) chain steps and swap decisions are
// decorrelated, and (b) the within-sweep stepping can run concurrently on
// a ThreadPool (one launchChains per sweep) with results bitwise invariant
// to the thread count: the parallel section only reads/writes per-chain
// state, and the swap point is serialized on the calling thread.
//
// Problem concept: same as MhChain's (logPosterior + propose, optionally
// the region hook). With the hook every chain keeps its own arena, and a
// swap exchanges arenas along with states.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mcmc/mh.h"
#include "par/kernel.h"
#include "rng/mt19937.h"
#include "rng/splitmix.h"

namespace mpcgs {

struct HeatedOptions {
    /// Temperatures, first entry must be 1 (the cold chain). LAMARC's
    /// default ladder is {1, 1.1, 1.2, 1.3}-like; steeper ladders help
    /// multi-modal posteriors.
    std::vector<double> temperatures{1.0, 1.2, 1.5, 2.0};
    std::size_t swapInterval = 10;  ///< propose one swap every k sweeps
    std::uint64_t seed = 1;
};

struct HeatedStats {
    std::size_t swapsProposed = 0;
    std::size_t swapsAccepted = 0;
    std::size_t steps = 0;     ///< MH transitions across all chains
    std::size_t accepted = 0;  ///< accepted transitions across all chains
    double swapRate() const {
        return swapsProposed == 0
                   ? 0.0
                   : static_cast<double>(swapsAccepted) / static_cast<double>(swapsProposed);
    }
};

template <class Problem>
class HeatedChains {
  public:
    using State = typename Problem::State;
    using Chain = MhChain<Problem>;

    /// `pool` parallelizes the within-sweep stepping across chains; null
    /// runs the sweep serially. Either way the results are identical.
    HeatedChains(const Problem& problem, State init, HeatedOptions opts,
                 ThreadPool* pool = nullptr)
        : opts_(std::move(opts)),
          pool_(pool),
          swapRng_(Mt19937::fromSplitMix(splitMix64At(opts_.seed, 0))) {
        if (opts_.temperatures.empty() || opts_.temperatures.front() != 1.0)
            throw std::invalid_argument("HeatedChains: temperatures must start with 1.0");
        for (const double t : opts_.temperatures)
            if (t < 1.0) throw std::invalid_argument("HeatedChains: temperatures must be >= 1");
        chains_.reserve(opts_.temperatures.size());
        for (std::size_t i = 0; i < opts_.temperatures.size(); ++i)
            chains_.emplace_back(problem, init,
                                 Mt19937::fromSplitMix(splitMix64At(opts_.seed, i + 1)), pool);
    }

    /// One sweep: an MH step in every chain (parallel section), plus (every
    /// swapInterval sweeps) one proposed swap between a random adjacent
    /// pair (serialized swap point).
    void sweep() {
        launchChains(pool_, chains_.size(),
                     [this](std::size_t i) { chains_[i].step(opts_.temperatures[i]); });
        ++sweeps_;
        if (sweeps_ % opts_.swapInterval == 0 && chains_.size() > 1) proposeSwap();
    }

    template <class Sink>
    void run(std::size_t burnInSweeps, std::size_t sampleSweeps, Sink&& sink) {
        for (std::size_t i = 0; i < burnInSweeps; ++i) sweep();
        for (std::size_t i = 0; i < sampleSweeps; ++i) {
            sweep();
            sink(cold());
        }
    }

    /// Current state of the cold (T = 1) chain.
    const State& cold() const { return chains_.front().current(); }
    double coldLogPosterior() const { return chains_.front().currentLogPosterior(); }
    /// Swap counters plus per-chain step/acceptance counters aggregated.
    HeatedStats stats() const {
        HeatedStats s = stats_;
        for (const Chain& c : chains_) {
            s.steps += c.steps();
            s.accepted += c.acceptedCount();
        }
        return s;
    }
    std::size_t chainCount() const { return chains_.size(); }
    std::size_t sweeps() const { return sweeps_; }

    // Checkpoint access: every chain (state, log-posterior, RNG and
    // counters, restored through MhChain::restore), the swap stream, and
    // the counters. Restoring all of them resumes the sweep sequence
    // bitwise.
    Chain& chain(std::size_t i) { return chains_[i]; }
    const Chain& chain(std::size_t i) const { return chains_[i]; }
    Mt19937& swapRng() { return swapRng_; }
    const Mt19937& swapRng() const { return swapRng_; }
    /// Restore the sweep counter and the swap counters (per-chain counters
    /// go through chain(i).restore).
    void restoreCounters(std::size_t sweeps, std::size_t swapsProposed,
                         std::size_t swapsAccepted) {
        sweeps_ = sweeps;
        stats_.swapsProposed = swapsProposed;
        stats_.swapsAccepted = swapsAccepted;
    }

  private:
    void proposeSwap() {
        const std::size_t i = static_cast<std::size_t>(swapRng_.below(chains_.size() - 1));
        Chain& a = chains_[i];
        Chain& b = chains_[i + 1];
        ++stats_.swapsProposed;
        // Standard MC^3 swap ratio.
        const double logR = (a.currentLogPosterior() - b.currentLogPosterior()) *
                            (1.0 / opts_.temperatures[i + 1] - 1.0 / opts_.temperatures[i]);
        if (logR >= 0.0 || std::log(swapRng_.uniformPos()) < logR) {
            a.swapStates(b);
            ++stats_.swapsAccepted;
        }
    }

    HeatedOptions opts_;
    ThreadPool* pool_;
    Mt19937 swapRng_;
    std::vector<Chain> chains_;
    HeatedStats stats_;
    std::size_t sweeps_ = 0;
};

}  // namespace mpcgs
