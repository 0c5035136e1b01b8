#include "lik/engine.h"

#include <algorithm>
#include <limits>
#include <span>

#include "par/kernel.h"
#include "util/error.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

/// Per-thread scratch for blocked evaluation. Worker threads live as long
/// as their pool, so these arenas are allocated once per thread and then
/// reused by every subsequent block, call, and engine.
struct BlockScratch {
    AlignedDoubles partials;  ///< internals x blockSize x 4 (scratch output)
    AlignedDoubles scale;     ///< internals x blockSize (scratch output)
    AlignedDoubles site;      ///< blockSize per-pattern site logs
    AlignedDoubles acc;       ///< blockSize cross-category accumulator
};

thread_local BlockScratch tlScratch;

/// Per-thread scratch for the evaluation driver (the thread that calls an
/// entry point, as opposed to the block workers): traversal order, rescale
/// metadata, the listed nodes, packed transition matrices and block sums.
/// Warm after the first evaluation on a thread, so the steady-state
/// sampling loop performs zero heap allocation here.
struct EvalScratch {
    std::vector<NodeId> order;           ///< postorder of the evaluated genealogy
    std::vector<NodeId> stack;           ///< traversal scratch
    std::vector<std::uint16_t> level;    ///< per-node pruning level
    LikelihoodEngine::Meta meta;
    std::vector<std::uint8_t> listed;    ///< per node: re-pruned by a partial update
    std::vector<NodeId> prune;           ///< listed internal nodes, children first
    std::vector<NodeId> children;        ///< their children (matrices to repack)
    std::vector<TransMat> tmat;          ///< scratch-output paths: C x nodes
    std::vector<double> blockSums;       ///< chunk-indexed partial sums
};

thread_local EvalScratch tlEval;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Mark `seeds` and all their ancestors in es.listed, then list the marked
/// internal nodes children first (es.prune; es.order must hold g's
/// postorder) and their children, the only nodes whose branch matrices
/// can have changed (a branch length is t(parent) - t(child), and only
/// listed nodes moved).
void listClosure(const Genealogy& g, std::span<const NodeId> seeds, EvalScratch& es) {
    es.listed.assign(static_cast<std::size_t>(g.nodeCount()), 0);
    for (const NodeId seed : seeds)
        for (NodeId cur = seed; cur != kNoNode && !es.listed[static_cast<std::size_t>(cur)];
             cur = g.node(cur).parent)
            es.listed[static_cast<std::size_t>(cur)] = 1;
    es.prune.clear();
    es.children.clear();
    for (const NodeId id : es.order) {
        if (!es.listed[static_cast<std::size_t>(id)] || g.isTip(id)) continue;
        es.prune.push_back(id);
        es.children.push_back(g.node(id).child[0]);
        es.children.push_back(g.node(id).child[1]);
    }
}

}  // namespace

/// The blocks of one evaluation. The internal nodes of `prune` (children
/// first; tips are skipped) are written to `out`, or to the block-local
/// strips of the worker's scratch when `out` is null. Any other internal
/// node is read from `base` when one is given (a region evaluation; then
/// `listed` tells the two apart) and from `out` otherwise.
struct LikelihoodEngine::BlockJob {
    const Genealogy& g;
    const std::vector<NodeId>& prune;
    const Meta& meta;
    const TransMat* tmat;  ///< [c * nodeCount + child]
    PartialsBuffer* out = nullptr;
    const PartialsBuffer* base = nullptr;
    const std::uint8_t* listed = nullptr;
};

LikelihoodEngine::LikelihoodEngine(const SitePatterns& patterns, const SubstModel& model,
                                   RateCategories rates)
    : patterns_(patterns),
      model_(model),
      pi_(model.stationary()),
      rates_(std::move(rates)) {
    rates_.validate();
    logCatWeights_.reserve(rates_.count());
    for (const double w : rates_.weights) logCatWeights_.push_back(std::log(w));

    const std::size_t P = patterns_.patternCount();
    const std::size_t nSeq = patterns_.sequenceCount();
    stride_ = roundUpTo(std::max<std::size_t>(P, 1), kTilePatterns);
    tipPartials_.ensure(nSeq * stride_ * 4);
    for (std::size_t s = 0; s < nSeq; ++s)
        fillTipStrip(patterns_.codesData(), nSeq, s, tipPartials_.data() + s * stride_ * 4, P);
}

std::size_t LikelihoodEngine::blockSize() const {
    // Size pattern blocks so one block's partials + scale working set
    // (internals x (4+1) doubles per pattern) stays around 128 KiB —
    // comfortably cache-resident while leaving enough blocks to spread
    // across workers. Blocks of whole tiles start every slice on a tile
    // (and cache-line) boundary, and the partition depends only on the
    // problem shape, never on the pool.
    const std::size_t internals =
        std::max<std::size_t>(1, patterns_.sequenceCount() - 1);
    const std::size_t bytesPerPattern = internals * 5 * sizeof(double);
    std::size_t b = (128 * 1024) / bytesPerPattern;
    b = std::clamp<std::size_t>(b, 16, 2048);
    return b - b % kTilePatterns;
}

void LikelihoodEngine::traversalMeta(const Genealogy& g, const std::vector<NodeId>& order,
                                     Meta& meta, std::vector<std::uint16_t>& level) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    meta.rescale.assign(nodes, 0);
    meta.hasScale.assign(nodes, 0);
    level.assign(nodes, 0);
    for (const NodeId id : order) {
        if (g.isTip(id)) continue;
        const TreeNode& nd = g.node(id);
        const std::size_t i = static_cast<std::size_t>(id);
        const std::size_t c0 = static_cast<std::size_t>(nd.child[0]);
        const std::size_t c1 = static_cast<std::size_t>(nd.child[1]);
        level[i] = static_cast<std::uint16_t>(1 + std::max(level[c0], level[c1]));
        meta.rescale[i] = level[i] % kRescaleInterval == 0;
        meta.hasScale[i] = meta.rescale[i] || meta.hasScale[c0] || meta.hasScale[c1];
    }
}

void LikelihoodEngine::packMatrices(const Genealogy& g, TransMat* dst,
                                    const std::vector<NodeId>* only) const {
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    const std::size_t C = rates_.count();
    auto packOne = [&](NodeId id) {
        if (id == g.root()) return;
        const double t = g.branchLength(id);
        for (std::size_t c = 0; c < C; ++c)
            dst[c * nodes + static_cast<std::size_t>(id)].pack(
                model_.transition(rates_.rates[c] * t));
    };
    if (only != nullptr) {
        for (const NodeId id : *only) packOne(id);
    } else {
        for (NodeId id = 0; id < g.nodeCount(); ++id) packOne(id);
    }
}

double LikelihoodEngine::runBlock(const BlockJob& job, std::size_t lo, std::size_t hi) const {
    const Genealogy& g = job.g;
    const std::size_t nodes = static_cast<std::size_t>(g.nodeCount());
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    const std::size_t internals = nodes - tips;
    const std::size_t C = rates_.count();
    const std::size_t B = blockSize();
    const std::size_t n = hi - lo;
    BlockScratch& s = tlScratch;
    if (job.out == nullptr) {
        s.partials.ensure(std::max<std::size_t>(1, internals) * B * 4);
        s.scale.ensure(std::max<std::size_t>(1, internals) * B);
    }
    s.site.ensure(B);
    s.acc.ensure(B);
    if (C > 1) std::fill_n(s.acc.data(), n, kNegInf);

    // One category at a time: the pattern slice stays cache-hot across
    // categories, and scratch output is reused by each.
    double sum = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
        const TransMat* cat = job.tmat + c * nodes;
        // Listed nodes go to the output arena's full-length strips, at this
        // block's offset, or to block-local scratch strips.
        const bool toArena = job.out != nullptr;
        double* const outPart =
            toArena ? job.out->partials(c, tips) + stripIndex(lo, 0) : s.partials.data();
        double* const outScale = toArena ? job.out->scale(c, tips) + lo : s.scale.data();
        const std::size_t stride1 = toArena ? job.out->patternStride : B;
        const std::size_t stride4 = stride1 * 4;
        auto fromBase = [&](std::size_t i) {
            return job.base != nullptr && !job.listed[i];
        };
        auto partialsOf = [&](NodeId id) -> const double* {
            const std::size_t i = static_cast<std::size_t>(id);
            if (i < tips) return tipPartials_.data() + i * stride_ * 4 + stripIndex(lo, 0);
            if (fromBase(i)) return job.base->partials(c, i) + stripIndex(lo, 0);
            return outPart + (i - tips) * stride4;
        };
        auto scaleOf = [&](NodeId id) -> const double* {
            const std::size_t i = static_cast<std::size_t>(id);
            if (i < tips || !job.meta.hasScale[i]) return nullptr;
            if (fromBase(i)) return job.base->scale(c, i) + lo;
            return outScale + (i - tips) * stride1;
        };

        for (const NodeId id : job.prune) {
            if (g.isTip(id)) continue;
            const TreeNode& nd = g.node(id);
            const std::size_t i = static_cast<std::size_t>(id);
            double* o = outPart + (i - tips) * stride4;
            pruneStrip(cat[static_cast<std::size_t>(nd.child[0])],
                       cat[static_cast<std::size_t>(nd.child[1])], partialsOf(nd.child[0]),
                       partialsOf(nd.child[1]), o, n);
            if (job.meta.hasScale[i]) {
                double* so = outScale + (i - tips) * stride1;
                addScaleStrips(scaleOf(nd.child[0]), scaleOf(nd.child[1]), so, n);
                if (job.meta.rescale[i]) rescaleStrip(o, so, n);
            }
        }

        double* site = s.site.data();
        rootLogStrip(partialsOf(g.root()), scaleOf(g.root()), pi_, site, n);
        if (C == 1) {
            sum = weightedSumStrip(site, patterns_.weightsData() + lo, n);
        } else {
            double* acc = s.acc.data();
            for (std::size_t p = 0; p < n; ++p)
                acc[p] = logAdd(acc[p], logCatWeights_[c] + site[p]);
        }
    }
    if (C > 1) sum = weightedSumStrip(s.acc.data(), patterns_.weightsData() + lo, n);
    return sum;
}

double LikelihoodEngine::runBlocks(const BlockJob& job, ThreadPool* pool) const {
    const std::size_t P = patterns_.patternCount();
    const std::size_t B = blockSize();
    std::vector<double>& blockSums = tlEval.blockSums;
    blockSums.assign((P + B - 1) / B, 0.0);
    launchBlocked(pool, P, B, [&](std::size_t bi, std::size_t lo, std::size_t hi) {
        blockSums[bi] = runBlock(job, lo, hi);
    });
    double total = 0.0;
    for (const double s : blockSums) total += s;
    return total;
}

double LikelihoodEngine::logLikelihood(const Genealogy& g, ThreadPool* pool) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    es.tmat.resize(rates_.count() * static_cast<std::size_t>(g.nodeCount()));
    packMatrices(g, es.tmat.data());
    return runBlocks(BlockJob{g, es.order, es.meta, es.tmat.data()}, pool);
}

double LikelihoodEngine::evaluate(const Genealogy& g, PartialsBuffer& buf,
                                  ThreadPool* pool) const {
    require(static_cast<std::size_t>(g.tipCount()) == patterns_.sequenceCount(),
            "likelihood: tip count != sequence count");
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    const std::size_t tips = static_cast<std::size_t>(g.tipCount());
    buf.ensure(rates_.count(), tips, static_cast<std::size_t>(g.nodeCount()) - tips, stride_);
    packMatrices(g, buf.tmat.data());
    const double total = runBlocks(BlockJob{g, es.order, es.meta, buf.tmat.data(), &buf}, pool);
    buf.primed = true;
    return total;
}

double LikelihoodEngine::evaluateDirty(const Genealogy& g, std::span<const NodeId> dirty,
                                       PartialsBuffer& buf, ThreadPool* pool) const {
    require(buf.primed && buf.nodeCount() == static_cast<std::size_t>(g.nodeCount()),
            "evaluateDirty: the arena holds no evaluation of this shape; call evaluate()");
    // The schedule of the whole tree: a level can only change inside the
    // dirty closure, so every node outside it keeps the flags its strips
    // were computed with.
    EvalScratch& es = tlEval;
    g.postorderInto(es.order, es.stack);
    traversalMeta(g, es.order, es.meta, es.level);
    listClosure(g, dirty, es);
    packMatrices(g, buf.tmat.data(), &es.children);
    return runBlocks(BlockJob{g, es.prune, es.meta, buf.tmat.data(), &buf}, pool);
}

double LikelihoodEngine::evaluateRegion(const Genealogy& member,
                                        std::span<const NodeId> changed,
                                        const PartialsBuffer& base, ThreadPool* pool) const {
    require(base.primed && base.nodeCount() == static_cast<std::size_t>(member.nodeCount()) &&
                base.categories == rates_.count(),
            "evaluateRegion: the base arena holds no evaluation of this shape");
    EvalScratch& es = tlEval;
    member.postorderInto(es.order, es.stack);
    traversalMeta(member, es.order, es.meta, es.level);
    listClosure(member, changed, es);
    es.tmat.resize(rates_.count() * static_cast<std::size_t>(member.nodeCount()));
    packMatrices(member, es.tmat.data(), &es.children);
    return runBlocks(BlockJob{member, es.prune, es.meta, es.tmat.data(), nullptr, &base,
                              es.listed.data()},
                     pool);
}

}  // namespace mpcgs
