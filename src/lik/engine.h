// Tiled likelihood engine: the shared evaluation core behind
// DataLikelihood::logLikelihood (stateless, full recomputation — the
// paper's GPU strategy, §5.2.2) and the region evaluation every MCMC
// chain scores its proposals with (each proposal re-prunes only the nodes
// it changed, over a kept arena holding the chain's current state, which
// a dirty-path update moves to an accepted proposal).
//
// Design, versus the seed's scalar per-pattern pruning:
//
//  * Partials are strips of 8-pattern tiles, state-major inside each tile
//    (pruning_kernels.h stripIndex), contiguous per node, so one node is
//    processed as a single sweep over all its patterns by the strip
//    kernels with the transition matrices broadcast from registers — the
//    CPU image of one-GPU-thread-per-site.
//  * Tip partials depend only on the alignment, never on the genealogy;
//    they are packed once at construction and shared by every evaluation.
//  * Rescaling (§5.3) runs every kRescaleInterval tree levels as a separate
//    strip pass instead of a per-node per-pattern branch. It multiplies each
//    pattern by 2^-e, e the binary exponent of the pattern's largest
//    partial, which is exact, and adds e ln 2 to the pattern's scale; the
//    root fold takes a vectorizable log. Subtrees that have never rescaled
//    skip scale bookkeeping entirely.
//  * Pattern strips are partitioned into cache-sized blocks launched across
//    the thread pool (par/kernel.h launchBlocked): every worker prunes the
//    listed nodes over its own pattern slice, so there is zero
//    synchronization between nodes. Block boundaries depend only on the
//    problem shape, so results are bitwise identical for any thread count.
//  * Rate categories are fused into the same blocked pass (each block
//    prunes all categories while its slice is cache-hot).
//  * Every entry point runs the same block routine: prune the listed
//    internal nodes, reading unlisted ones from a base arena when one is
//    given, then fold the root. One compiled copy of the strip kernels is
//    what makes a dirty update or a region evaluation bitwise equal to a
//    full evaluation of the same genealogy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lik/partials_buffer.h"
#include "lik/rate_model.h"
#include "lik/site_pattern.h"
#include "par/thread_pool.h"
#include "phylo/tree.h"
#include "seq/subst_model.h"

namespace mpcgs {

class LikelihoodEngine {
  public:
    /// Rescale every this many tree levels. With per-level partial shrink
    /// bounded below by the smallest transition probability, four levels
    /// stay far above the double underflow threshold between passes.
    static constexpr std::size_t kRescaleInterval = 4;

    /// Holds references: `patterns` and `model` must outlive the engine
    /// (DataLikelihood owns both and constructs the engine last).
    LikelihoodEngine(const SitePatterns& patterns, const SubstModel& model,
                     RateCategories rates);

    LikelihoodEngine(const LikelihoodEngine&) = delete;
    LikelihoodEngine& operator=(const LikelihoodEngine&) = delete;

    /// log P(D|G) by full recomputation. Thread-safe (per-thread scratch);
    /// pattern blocks run on `pool` when supplied.
    double logLikelihood(const Genealogy& g, ThreadPool* pool = nullptr) const;

    /// Full evaluation populating `buf` (a chain's arena).
    double evaluate(const Genealogy& g, PartialsBuffer& buf, ThreadPool* pool = nullptr) const;

    /// Re-evaluate after `dirty` nodes (and their ancestors) changed,
    /// recomputing only the dirty closure — including its transition
    /// matrices, which the seed rebuilt for every node on every step. The
    /// rescale schedule comes from `g`, so the result equals a full
    /// evaluation of `g` bitwise.
    double evaluateDirty(const Genealogy& g, std::span<const NodeId> dirty,
                         PartialsBuffer& buf, ThreadPool* pool = nullptr) const;

    /// log P(D|member) for a genealogy that differs from the one `base` was
    /// evaluated for (evaluate()) only at the `changed` nodes: their times
    /// and children. Re-prunes just those nodes and their ancestors into
    /// thread-local block scratch and reads every other internal strip from
    /// `base`, which it never writes, so any number of threads may evaluate
    /// members over one base at once. Pattern blocks run on `pool` when
    /// supplied; bitwise equal to logLikelihood(member) either way.
    double evaluateRegion(const Genealogy& member, std::span<const NodeId> changed,
                          const PartialsBuffer& base, ThreadPool* pool = nullptr) const;

    std::size_t patternCount() const { return patterns_.patternCount(); }

    /// Traversal metadata for one genealogy: the per-node rescale schedule
    /// derived from pruning levels. Public so callers (and the engine's own
    /// thread-local scratch) can keep one warm across evaluations.
    struct Meta {
        std::vector<std::uint8_t> rescale;
        std::vector<std::uint8_t> hasScale;
    };

  private:
    /// Fill `meta` for `order`; `level` is per-node scratch. Reuses the
    /// vectors' capacity — no allocation once warm.
    void traversalMeta(const Genealogy& g, const std::vector<NodeId>& order, Meta& meta,
                       std::vector<std::uint16_t>& level) const;

    /// Pack transition matrices for all categories; `dst` is indexed
    /// [c * nodeCount + child]. `only` restricts to the given child ids
    /// (nullptr = every non-root node).
    void packMatrices(const Genealogy& g, TransMat* dst,
                      const std::vector<NodeId>* only = nullptr) const;

    /// What the blocks of one evaluation share (engine.cc).
    struct BlockJob;

    /// The one block routine behind every entry point: for every category,
    /// prune the job's listed internal nodes over patterns [lo, hi), then
    /// fold the root; returns the block's weighted log-likelihood. Kept out
    /// of line so the strip kernels compile exactly once for all paths.
    [[gnu::noinline]] double runBlock(const BlockJob& job, std::size_t lo,
                                      std::size_t hi) const;

    /// Launch runBlock over every pattern block and sum the block results
    /// in block order.
    double runBlocks(const BlockJob& job, ThreadPool* pool) const;

    std::size_t blockSize() const;

    const SitePatterns& patterns_;
    const SubstModel& model_;
    BaseFreqs pi_;
    RateCategories rates_;
    std::vector<double> logCatWeights_;
    std::size_t stride_ = 0;        ///< patternCount rounded up to whole tiles
    AlignedDoubles tipPartials_;    ///< nSeq strips of stride patterns, packed once
};

}  // namespace mpcgs
