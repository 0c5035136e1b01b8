// Generalized Metropolis-Hastings — Calderhead's multiple-proposal
// construction (§4.1, Algorithm 1), the paper's core contribution vehicle.
//
// Problem concept:
//   using State;
//   using Region;                       // the auxiliary variable phi (§4.3)
//   Region makeRegion(const State& generator, Rng& hostRng) const;
//   State proposeInRegion(const Region&, Rng& threadRng) const;   // iid given region
//   double logProposalDensity(const Region&, const State&) const; // q_phi(x)
//   double logPosterior(const State&) const;                      // unnormalized log pi
//
// Optional region hook (mcmc/region.h), for problems whose proposals
// differ from their generator only inside the region. The generator is
// evaluated into the arena at the first iteration after start() or
// restore(); a draw that moves the chain moves the arena to the chosen
// member. The fan-out scores proposals without a pool.
//
// Each iteration: draw the region from the current generator, fan out N
// independent proposals (one logical device thread each — the proposal
// kernel of §5.2.1), then sample the index variable I from the stationary
// distribution of the induced transition matrix, which is the categorical
// distribution with weights
//
//   w_i  propto  pi(x_i) / q_phi(x_i).
//
// When q_phi is exactly the conditional coalescent prior this reduces to
// the paper's Eq. 31 (w_i propto P(D|G_i)); keeping the q term makes the
// sampler exact for any positive proposal density (DESIGN.md §1).
//
// Proposal randomness comes from per-(iteration, proposal) Philox streams,
// so results are bit-reproducible regardless of the thread count.
//
// Each iteration records the spans gmh_region (region draw, and the
// generator's full evaluation when the arena needs one), gmh_fanout (the N
// proposals) and gmh_draw (the index draws, their samples and the arena's
// move to the chosen member), and adds the proposals' drawing and scoring
// times, summed over the threads that ran them, to mcmc.propose_ns and
// mcmc.likelihood_ns; the arena's evaluations count as likelihood.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "mcmc/region.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "rng/philox.h"
#include "util/logspace.h"

namespace mpcgs {

namespace detail {
/// Invoke a sampler sink with (state, logPosterior) when it accepts the
/// pair, falling back to the classic single-argument form. Lets the
/// runtime stream log-posteriors without breaking existing sinks.
template <class Sink, class State>
void emitSample(Sink* sink, const State& s, double logPost) {
    if (!sink) return;
    if constexpr (std::is_invocable_v<Sink&, const State&, double>)
        (*sink)(s, logPost);
    else
        (*sink)(s);
}
}  // namespace detail

struct GmhOptions {
    std::size_t numProposals = 16;         ///< N proposals per iteration
    std::size_t samplesPerIteration = 16;  ///< draws from the stationary of A
    std::uint64_t seed = 1;
};

struct GmhStats {
    std::size_t iterations = 0;
    std::size_t samplesDrawn = 0;
    std::size_t generatorResampled = 0;  ///< draws that picked the generator
    double meanGeneratorWeight = 0.0;    ///< running mean of the generator's weight

    /// Fraction of draws that moved away from the generator (the GMH
    /// analogue of an acceptance rate).
    double moveRate() const {
        return samplesDrawn == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(generatorResampled) / static_cast<double>(samplesDrawn);
    }
};

template <class Problem>
class GmhSampler {
  public:
    using State = typename Problem::State;
    using Region = typename Problem::Region;

    GmhSampler(const Problem& problem, GmhOptions opts, ThreadPool* pool = nullptr)
        : problem_(problem), opts_(opts), pool_(pool),
          hostRng_(static_cast<std::uint32_t>(opts.seed ^ (opts.seed >> 32))) {}

    /// Run `burnInIters` discarded iterations then `sampleIters` recorded
    /// iterations; every recorded iteration emits samplesPerIteration
    /// states to sink(const State&) (or sink(const State&, double logPost)
    /// when the sink accepts it). Returns the final state.
    template <class Sink>
    State run(State init, std::size_t burnInIters, std::size_t sampleIters, Sink&& sink) {
        start(std::move(init));
        using SinkT = std::remove_reference_t<Sink>;
        for (std::size_t it = 0; it < burnInIters; ++it) tick(static_cast<SinkT*>(nullptr));
        for (std::size_t it = 0; it < sampleIters; ++it) tick(&sink);
        return std::move(current_);
    }

    /// Tick-level interface for the sampler runtime: start() installs the
    /// initial state (evaluating its posterior once — the generator's
    /// posterior is carried between iterations afterwards and goes into
    /// slot N of every set), then each tick() performs one Algorithm-1
    /// iteration.
    void start(State init) {
        current_ = std::move(init);
        currentLogPost_ = problem_.logPosterior(current_);
        arenaCurrent_ = false;
    }

    template <class Sink>
    void tick(Sink* sink) {
        current_ = iterate(std::move(current_), currentLogPost_, sink);
    }

    const State& current() const { return current_; }
    double currentLogPosterior() const { return currentLogPost_; }
    std::uint64_t iteration() const { return iteration_; }
    Mt19937& hostRng() { return hostRng_; }
    const Mt19937& hostRng() const { return hostRng_; }

    /// Restore a snapshotted sampler mid-run (the host RNG is restored
    /// separately through hostRng(); proposal streams are counter-based
    /// Philox keyed by the iteration counter, so they need no state).
    void restore(State s, double logPost, std::uint64_t iteration, GmhStats stats) {
        current_ = std::move(s);
        currentLogPost_ = logPost;
        iteration_ = iteration;
        stats_ = stats;
        arenaCurrent_ = false;
    }

    const GmhStats& stats() const { return stats_; }

  private:
    /// One Algorithm-1 iteration. When sink != nullptr the M index draws
    /// are emitted as samples; burn-in iterations draw indices the same way
    /// (the chain dynamics are identical, §4.1: "there is no distinction
    /// between the parallelism applied to the burn-in phase and the
    /// sampling phase") but discard them. `currentLogPost` carries the
    /// generator's posterior in and the chosen member's posterior out.
    template <class Sink>
    State iterate(State current, double& currentLogPost, Sink* sink) {
        const std::size_t n = opts_.numProposals;
        const Region region = prepareRegion(current);

        // Proposal fan-out: slot n holds the generator itself. The fan-out
        // buffers are sampler members, so their storage is reused across
        // iterations instead of reallocated per step.
        std::vector<State>& members = members_;
        std::vector<double>& logPost = logPost_;
        std::vector<double>& logW = logW_;
        members.resize(n + 1);
        logPost.resize(n + 1);
        logW.resize(n + 1);
        const std::uint64_t iterBase = iteration_ * static_cast<std::uint64_t>(n + 1);
        {
            const obs::TraceSpan span("gmh_fanout", "mcmc");
            forEachIndex(pool_, n, [&](std::size_t i) {
                Philox rng(opts_.seed, iterBase + i);
                const double logQ = [&] {
                    const obs::PhaseTimer timer(obs::Counter::McmcProposeNs);
                    members[i] = problem_.proposeInRegion(region, rng);
                    return problem_.logProposalDensity(region, members[i]);
                }();
                {
                    const obs::PhaseTimer timer(obs::Counter::McmcLikelihoodNs);
                    if constexpr (RegionEvaluated<Problem>)
                        logPost[i] = problem_.logPosterior(region, arena_, members[i]);
                    else
                        logPost[i] = problem_.logPosterior(members[i]);
                }
                logW[i] = logPost[i] - logQ;
            });
            members[n] = std::move(current);
            logPost[n] = currentLogPost;
            logW[n] = logPost[n] - problem_.logProposalDensity(region, members[n]);
        }

        const obs::TraceSpan span("gmh_draw", "mcmc");
        // Stationary distribution of the inner transition matrix A.
        std::vector<double>& probs = probs_;
        logNormalize(logW, probs);

        stats_.meanGeneratorWeight += (probs[n] - stats_.meanGeneratorWeight) /
                                      static_cast<double>(stats_.iterations + 1);

        // Sample I repeatedly (§4.3); the last draw seeds the next round.
        std::size_t last = n;
        for (std::size_t m = 0; m < opts_.samplesPerIteration; ++m) {
            last = hostRng_.categorical(probs);
            ++stats_.samplesDrawn;
            if (last == n) ++stats_.generatorResampled;
            detail::emitSample(sink, members[last], logPost[last]);
        }
        ++stats_.iterations;
        ++iteration_;
        currentLogPost = logPost[last];
        if constexpr (RegionEvaluated<Problem>) {
            if (last != n) {
                const obs::PhaseTimer timer(obs::Counter::McmcLikelihoodNs);
                problem_.moveGenerator(region, members[last], arena_, pool_);
            }
        }
        return std::move(members[last]);
    }

    /// Draw the iteration's region from the generator. For a problem with
    /// the region hook, first evaluate the generator into the arena unless
    /// the arena already holds it.
    Region prepareRegion(const State& generator) {
        const obs::TraceSpan span("gmh_region", "mcmc");
        if constexpr (RegionEvaluated<Problem>) {
            if (!arenaCurrent_) {
                const obs::PhaseTimer timer(obs::Counter::McmcLikelihoodNs);
                problem_.evaluateGenerator(generator, arena_, pool_);
                arenaCurrent_ = true;
            }
        }
        return problem_.makeRegion(generator, hostRng_);
    }

    const Problem& problem_;
    GmhOptions opts_;
    ThreadPool* pool_;
    Mt19937 hostRng_;
    GmhStats stats_;
    std::uint64_t iteration_ = 0;
    State current_{};
    double currentLogPost_ = 0.0;
    // Per-iteration fan-out buffers, reused across iterations (never part
    // of checkpointed state — rebuilt from scratch by the next iterate()).
    std::vector<State> members_;
    std::vector<double> logPost_;
    std::vector<double> logW_;
    std::vector<double> probs_;
    typename detail::ArenaOf<Problem>::type arena_;  ///< the current generator's evaluation
    bool arenaCurrent_ = false;  ///< arena_ holds current_ (reset by start/restore)
};

}  // namespace mpcgs
