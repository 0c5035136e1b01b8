// The optional region hook shared by the MCMC engines (GmhSampler,
// MhChain and, through MhChain, HeatedChains). A problem whose proposals
// differ from the state they were drawn from only inside a small region
// declares:
//
//   using Region;                                 // what a proposal changed
//   using Arena;                                  // per-chain, default-constructible
//   void evaluateGenerator(const State&, Arena&, ThreadPool*) const;
//   void moveGenerator(const Region&, const State& member, Arena&, ThreadPool*) const;
//   double logPosterior(const Region&, const Arena&, const State&) const;
//
// The engine keeps an arena holding an evaluation of its current state
// (GMH: its generator) and scores each proposal over it; that score must
// equal logPosterior(state) bitwise, so the hook changes cost, never the
// chain. The arena is evaluated in full, on the pool, only at the first
// step after the chain starts or is restored; whenever the chain moves to
// a proposal, moveGenerator brings the arena to it by re-evaluating only
// its region, also on the pool. The arena is never checkpointed.
//
// The scoring overload may take a trailing ThreadPool*: MhChain scores
// each proposal on its pool, while GMH's fan-out, already parallel over
// proposals, scores without one.
#pragma once

#include <concepts>
#include <utility>

#include "par/thread_pool.h"

namespace mpcgs {

/// A problem with the optional region hook (see above).
template <class P>
concept RegionEvaluated =
    requires(const P& p, const typename P::Region& r, typename P::Arena& a,
             const typename P::State& s, ThreadPool* pool) {
        p.evaluateGenerator(s, a, pool);
        p.moveGenerator(r, s, a, pool);
        { p.logPosterior(r, std::as_const(a), s) } -> std::convertible_to<double>;
    };

namespace detail {
struct NoArena {};
template <class P>
struct ArenaOf {
    using type = NoArena;
};
template <RegionEvaluated P>
struct ArenaOf<P> {
    using type = typename P::Arena;
};
}  // namespace detail

}  // namespace mpcgs
