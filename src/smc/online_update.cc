#include "smc/online_update.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "coalescent/prior.h"
#include "core/mle.h"
#include "core/numeric_guard.h"
#include "core/recoalesce.h"
#include "lik/locus_likelihoods.h"
#include "lik/slot_arena.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/kernel.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/logspace.h"

namespace mpcgs {
namespace {

// ---------------------------------------------------------------------------
// Attachment scorer: the exact log-likelihood of a tree grafted with the
// new tip X, from slot-arena combines, without building the grafted tree.
// Every supported model is time-reversible, so the grafted tree may be
// rooted at the new node u, where X, the subtree below the branch and the
// rest of the tree meet.
//
// The lower slot D_v holds v's subtree. The outer slot O_v of a non-root
// node v, with parent w and sibling s, holds everything outside v's
// subtree as seen from w:
//
//   O_v = combine(O_w, len_w, D_s, len_s).
//
// Directly below the root nothing lies above w, so O_v is D_s at an extra
// length len_s (M(a) M(b) = M(a + b)) and needs no slot. Attaching X to
// the branch above v at height h in [t_v, t_w] scores as the root fold of
//
//   combine(O_v, t_w - h, combine(D_v, h - t_v, X, h), 0),
//
// and attaching it to the root lineage, at h above the old root, as the
// root fold of combine(D_root, h - t_root, X, h).
// ---------------------------------------------------------------------------
class AttachmentScorer {
  public:
    using Slot = SlotArena::Slot;

    /// Scratch slots one scorer needs: an outer slot per node of an
    /// n-tip tree plus two for a candidate's combines.
    static std::size_t scratchSlots(int n) { return 2 * static_cast<std::size_t>(n) + 1; }

    /// Slot layout: tip t at slot t, the new tip X at slot n, internal
    /// node n + k at `internal` + k, and scratchSlots(n) slots from
    /// `scratch`. The tips and X must already hold their tipInit.
    AttachmentScorer(SlotArena& arena, const Genealogy& g, Slot internal, Slot scratch)
        : arena_(arena), g_(g), n_(g.tipCount()), internal_(internal), scratch_(scratch) {}

    /// Combine every internal node's lower slot, children first.
    void buildLower() {
        for (NodeId v : g_.postorder()) {
            if (g_.isTip(v)) continue;
            const NodeId a = g_.node(v).child[0];
            const NodeId b = g_.node(v).child[1];
            arena_.combine(lower(v), lower(a), g_.branchLength(a), lower(b),
                           g_.branchLength(b), nullptr);
        }
    }

    /// Combine every outer slot, parents first.
    void buildOuter() {
        for (NodeId v : g_.preorder()) {
            const NodeId w = g_.node(v).parent;
            if (w == kNoNode || w == g_.root()) continue;
            const Outer up = outer(w);
            const NodeId s = sibling(v);
            arena_.combine(scratch_ + static_cast<Slot>(v), up.slot,
                           up.extra + g_.branchLength(w), lower(s), g_.branchLength(s),
                           nullptr);
        }
    }

    /// Log-likelihood of the grafted tree with X joined above `v` at height
    /// `h`; v == root means the root lineage.
    double logLikAt(NodeId v, double h) {
        const Slot joined = scratch_ + static_cast<Slot>(2 * n_ - 1);
        const bool rootLineage = v == g_.root();
        double logL = 0.0;
        arena_.combine(joined, lower(v), h - g_.node(v).time, static_cast<Slot>(n_), h,
                       rootLineage ? &logL : nullptr);
        if (!rootLineage) {
            const Outer up = outer(v);
            arena_.combine(joined + 1, up.slot,
                           up.extra + (g_.node(g_.node(v).parent).time - h), joined, 0.0,
                           &logL);
        }
        return logL;
    }

  private:
    /// An outer slot and the branch length it still sits below.
    struct Outer {
        Slot slot;
        double extra;
    };

    Slot lower(NodeId v) const {
        return v < n_ ? static_cast<Slot>(v) : internal_ + static_cast<Slot>(v - n_);
    }
    NodeId sibling(NodeId v) const {
        const TreeNode& w = g_.node(g_.node(v).parent);
        return w.child[0] == v ? w.child[1] : w.child[0];
    }
    Outer outer(NodeId v) const {
        if (g_.node(v).parent == g_.root()) {
            const NodeId s = sibling(v);
            return {lower(s), g_.branchLength(s)};
        }
        return {scratch_ + static_cast<Slot>(v), 0.0};
    }

    SlotArena& arena_;
    const Genealogy& g_;
    int n_;
    Slot internal_;
    Slot scratch_;
};

/// Golden-section steps of the per-candidate height search. A fixed count
/// keeps the guided proposal a deterministic function of the particle's
/// tree.
constexpr int kHeightSearchIterations = 24;

/// The enlarged-arena graft: old tips keep their ids, the new tip becomes
/// id n, old internals shift by one (v -> v+1) and the new coalescent node
/// takes id 2n, joining the new tip to (the branch above) `attach` at
/// height h. attach == root grafts above the old root (the new node
/// becomes the root).
Genealogy graftTip(const Genealogy& g, NodeId attach, double h,
                   const std::vector<std::string>& names) {
    const int n = g.tipCount();
    const NodeId newTip = n;
    const NodeId join = 2 * n;
    Genealogy out(n + 1);
    const auto map = [n](NodeId id) { return id < n ? id : id + 1; };
    for (NodeId v = n; v < g.nodeCount(); ++v) out.node(map(v)).time = g.node(v).time;
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
        if (v == attach) continue;
        const NodeId par = g.node(v).parent;
        if (par != kNoNode) out.link(map(par), map(v));
    }
    out.node(join).time = h;
    if (attach == g.root()) {
        out.link(join, map(attach));
        out.link(join, newTip);
        out.setRoot(join);
    } else {
        out.link(map(g.node(attach).parent), join);
        out.link(join, map(attach));
        out.link(join, newTip);
        out.setRoot(map(g.root()));
    }
    out.setTipNames(names);
    return out;
}

}  // namespace

OnlineState initOnlineState(const Alignment& aln, double theta, const SmcOptions& smc,
                            const std::string& substModel, std::uint64_t seed,
                            ThreadPool* pool) {
    const std::unique_ptr<SubstModel> model = makeInferenceModel(substModel, aln);
    DataLikelihood lik(aln, *model);
    SlotArena arena(lik);
    SmcFilter filter(arena, theta, smc, seed, pool);
    while (!filter.done()) filter.step();

    OnlineState st;
    st.alignment = aln;
    st.substModel = substModel;
    st.theta = theta;
    st.seed = seed;
    st.logZ = filter.logZ();
    ParticleCloud& cloud = filter.cloud();
    const std::size_t N = cloud.size();
    const std::span<const double> logW = std::as_const(cloud).logWeights();
    st.particles.resize(N);
    for (std::size_t p = 0; p < N; ++p) {
        st.particles[p].tree = cloud.genealogy(p);
        st.particles[p].logW = logW[p];
        st.particles[p].logL = cloud.particle(p).rootLogL.front();
    }
    st.hostRng = cloud.hostRng();
    st.slotRngs.reserve(N);
    for (std::size_t p = 0; p < N; ++p) st.slotRngs.push_back(cloud.slotRng(p));
    return st;
}

OnlineSmcUpdater::OnlineSmcUpdater(OnlineState& state, const OnlineOptions& opts,
                                   ThreadPool* pool)
    : state_(state), opts_(opts), pool_(pool) {
    if (!(opts.essThreshold >= 0.0 && opts.essThreshold <= 1.0))
        throw ConfigError("online: ESS threshold must lie in [0, 1]");
    if (state.particles.empty()) throw ConfigError("online: state holds no particles");
    if (state.slotRngs.size() != state.particles.size())
        throw ConfigError("online: state RNG stream count does not match particle count");
    if (!(state.theta > 0.0)) throw ConfigError("online: theta must be positive");
}

OnlineUpdateResult OnlineSmcUpdater::addSequence(const Sequence& seq) {
    const obs::TraceSpan span("online_update", "smc");
    const std::size_t N = state_.particles.size();
    const int n = static_cast<int>(state_.alignment.sequenceCount());
    const double theta = state_.theta;
    if (seq.length() != state_.alignment.length())
        throw ConfigError("online: new sequence '" + seq.name() + "' has length " +
                          std::to_string(seq.length()) + ", alignment has " +
                          std::to_string(state_.alignment.length()));
    for (const Sequence& s : state_.alignment.sequences())
        if (s.name() == seq.name())
            throw ConfigError("online: duplicate sequence name '" + seq.name() + "'");

    // The enlarged alignment compresses to a DIFFERENT pattern set, so the
    // whole likelihood stack is rebuilt fresh per update (model frequencies
    // re-estimated from the enlarged data — legitimate for the importance
    // ratio because the old-target denominator uses the CACHED old logL).
    std::vector<Sequence> seqs = state_.alignment.sequences();
    seqs.push_back(seq);
    const Alignment newAln(std::move(seqs));
    const std::unique_ptr<SubstModel> model =
        makeInferenceModel(state_.substModel, newAln);
    const DataLikelihood lik(newAln, *model);
    SlotArena arena(lik);
    const std::vector<std::string> newNames = newAln.names();

    // --- Phase 1: rebuild each particle's lower slots against the new
    // pattern set and draw its guided attachment, thread-parallel over
    // fixed particle blocks with slot-pinned RNG streams (bitwise invariant
    // to the worker count). Slot map: tips [0, n] shared (the new tip is
    // sequence n), then n-1 lower slots per particle, then one scorer's
    // scratch per block; a particle's combines write only its own lower
    // slots and its block's scratch. Candidates are the 2n-2 non-root nodes
    // in id order plus the root lineage LAST; each candidate's weight is
    // its height-optimized grafted-tree log-likelihood, softmax-normalized.
    const std::size_t tipSlots = static_cast<std::size_t>(n) + 1;
    const std::size_t perParticle = static_cast<std::size_t>(n) - 1;
    const std::size_t lowerSlots = tipSlots + N * perParticle;
    const std::size_t scratchSlots = AttachmentScorer::scratchSlots(n);
    const std::size_t blocks = (N + kParticleBlockSize - 1) / kParticleBlockSize;
    arena.resizeSlots(lowerSlots + blocks * scratchSlots);
    for (int t = 0; t <= n; ++t) arena.tipInit(static_cast<SlotArena::Slot>(t), t, nullptr);
    std::vector<double> delta(N, 0.0);
    std::vector<double> newLogL(N, 0.0);
    std::vector<Genealogy> newTrees(N);
    launchBlocked(pool_, N, kParticleBlockSize, [&](std::size_t block, std::size_t begin,
                                                 std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
            const OnlineParticle& pt = state_.particles[p];
            const Genealogy& g = pt.tree;
            Mt19937& rng = state_.slotRngs[p];

            AttachmentScorer scorer(
                arena, g, static_cast<SlotArena::Slot>(tipSlots + p * perParticle),
                static_cast<SlotArena::Slot>(lowerSlots + block * scratchSlots));
            scorer.buildLower();
            scorer.buildOuter();

            std::vector<NodeId> cands;
            cands.reserve(static_cast<std::size_t>(g.nodeCount()));
            for (NodeId v = 0; v < g.nodeCount(); ++v)
                if (v != g.root()) cands.push_back(v);
            cands.push_back(g.root());  // the root lineage, by convention last

            const double tRoot = g.node(g.root()).time;
            std::vector<double> phi(cands.size());
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const NodeId v = cands[i];
                const double lo = v == g.root() ? tRoot : g.node(v).time;
                const double hi =
                    v == g.root() ? tRoot + 2.0 * theta : g.node(g.node(v).parent).time;
                const GoldenSection best = goldenSectionMax(
                    [&](double h) { return scorer.logLikAt(v, h); }, lo, hi, 0.0,
                    kHeightSearchIterations);
                phi[i] = std::max(best.f1, best.f2);
            }

            const double logQNorm = logSumExp(phi);
            const std::size_t pick = rng.categoricalFromLog(phi);
            const NodeId attach = cands[pick];
            const double logQBranch = phi[pick] - logQNorm;
            double h, logQHeight;
            if (attach == g.root()) {
                // Shifted exponential above the old root at the Kingman
                // two-lineage rate — an exact, easily-inverted density.
                const double rate = 2.0 / theta;
                const double e = rng.exponential(rate);
                h = tRoot + e;
                logQHeight = std::log(rate) - rate * e;
            } else {
                const double lo = g.node(attach).time;
                const double hi = g.node(g.node(attach).parent).time;
                h = rng.uniform(lo, hi);
                logQHeight = -std::log(hi - lo);
            }

            newLogL[p] = scorer.logLikAt(attach, h);
            newTrees[p] = graftTip(g, attach, h, newNames);
            // Exact importance ratio: enlarged target over old target times
            // proposal. The old prior comes from the ORIGINAL tree (the
            // enlarged arena holds unlinked nodes, so its intervals would
            // be wrong).
            delta[p] = newLogL[p] + logCoalescentPrior(newTrees[p], theta) - pt.logL -
                       logCoalescentPrior(g, theta) - logQBranch - logQHeight;
        }
    });

    // --- Phase 2 (serial): reweight, guard, commit. The fail point lives
    // here so its evaluation count (one per update) is deterministic.
    if (const auto hit = MPCGS_FAILPOINT("online.reweight"); hit.fired()) {
        if (hit.action == failpoint::Action::Nan)
            delta[0] = std::numeric_limits<double>::quiet_NaN();
        else
            throw InjectedFaultError("online.reweight");
    }
    std::vector<double> logW(N);
    for (std::size_t p = 0; p < N; ++p) logW[p] = state_.particles[p].logW + delta[p];
    // Old weights are normalized, so logSumExp(logW + delta) estimates
    // log P(D_{n+1}) - log P(D_n) directly.
    const double logZInc = logSumExp(logW);
    if (!std::isfinite(logZInc)) {
        std::size_t finiteD = 0;
        for (std::size_t p = 0; p < N; ++p)
            if (std::isfinite(delta[p])) ++finiteD;
        NumericFaultContext ctx;
        ctx.where = "online.reweight";
        ctx.value = logZInc;
        ctx.theta = theta;
        ctx.seed = state_.seed;
        ctx.tick = state_.updates;
        ctx.genealogy = genealogySummary(state_.particles[0].tree);
        ctx.detail = "add-sequence update: " + std::to_string(state_.updates) +
                     "\nnew sequence: " + seq.name() +
                     "\nparticles: " + std::to_string(N) +
                     "\nfinite importance increments: " + std::to_string(finiteD) +
                     "\nhint: a particle produced a non-finite reweight — check "
                     "the new sequence's alignment against the model";
        raiseNumericFault(ctx);
    }
    for (std::size_t p = 0; p < N; ++p) {
        state_.particles[p].tree = std::move(newTrees[p]);
        state_.particles[p].logL = newLogL[p];
        state_.particles[p].logW = logW[p] - logZInc;
    }
    state_.alignment = newAln;
    state_.logZ += logZInc;
    ++state_.updates;
    // Serial commit point — deterministic metric counts, no RNG touched.
    obs::add(obs::Counter::SmcOnlineUpdates);
    obs::set(obs::Gauge::SmcOnlineLogZIncrement, logZInc);
    obs::set(obs::Gauge::SmcLogZ, state_.logZ);

    OnlineUpdateResult res;
    res.logZIncrement = logZInc;

    // --- Phase 3: ESS refresh. Threshold 1.0 refreshes unconditionally
    // (the same boundary contract as the batch filter), 0.0 never does.
    std::vector<double> probs;
    for (std::size_t p = 0; p < N; ++p) logW[p] = state_.particles[p].logW;
    logNormalize(logW, probs);
    const double ess = weightEss(probs);
    res.essFraction = ess / static_cast<double>(N);
    const bool refresh = opts_.essThreshold >= 1.0 ||
                         ess < opts_.essThreshold * static_cast<double>(N);
    obs::set(obs::Gauge::SmcEssFraction, res.essFraction);
    if (refresh) {
        res.refreshed = true;
        obs::add(obs::Counter::SmcOnlineRefreshes);
        std::vector<std::uint32_t> ancestry;
        resampleAncestors(opts_.scheme, probs, state_.hostRng, ancestry);
        std::vector<OnlineParticle> next(N);
        for (std::size_t i = 0; i < N; ++i) next[i] = state_.particles[ancestry[i]];
        state_.particles = std::move(next);
        const double uniform = -std::log(static_cast<double>(N));
        for (std::size_t p = 0; p < N; ++p) state_.particles[p].logW = uniform;

        // Rejuvenation: recoalesce MH sweeps against the enlarged-data
        // posterior, slot streams again, so the refresh stays bitwise
        // thread-invariant.
        std::vector<std::size_t> accepts(N, 0);
        for (std::size_t sweep = 0; sweep < opts_.rejuvenationSweeps; ++sweep) {
            launchBlocked(pool_, N, kParticleBlockSize, [&](std::size_t, std::size_t begin,
                                                         std::size_t end) {
                for (std::size_t p = begin; p < end; ++p) {
                    OnlineParticle& pt = state_.particles[p];
                    Mt19937& rng = state_.slotRngs[p];
                    RecoalesceProposal prop = proposeRecoalesce(pt.tree, theta, rng);
                    const double propLogL = lik.logLikelihood(prop.state, nullptr);
                    const double logAccept =
                        propLogL + logCoalescentPrior(prop.state, theta) - pt.logL -
                        logCoalescentPrior(pt.tree, theta) + prop.logReverse -
                        prop.logForward;
                    if (std::log(rng.uniformPos()) < logAccept) {
                        pt.tree = std::move(prop.state);
                        pt.logL = propLogL;
                        ++accepts[p];
                    }
                }
            });
        }
        for (std::size_t p = 0; p < N; ++p) res.rejuvenationAccepts += accepts[p];
        obs::add(obs::Counter::SmcRejuvenationAccepts, res.rejuvenationAccepts);
    }
    return res;
}

double onlineThetaEstimate(const OnlineState& state) {
    std::vector<double> logW(state.particles.size());
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        logW[p] = state.particles[p].logW;
    std::vector<double> probs;
    logNormalize(logW, probs);
    double est = 0.0;
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        est += probs[p] * singleTreeThetaMle(state.particles[p].tree.intervals());
    return est;
}

double onlineEssFraction(const OnlineState& state) {
    std::vector<double> logW(state.particles.size());
    for (std::size_t p = 0; p < state.particles.size(); ++p)
        logW[p] = state.particles[p].logW;
    return essFromLogWeights(logW) / static_cast<double>(state.particles.size());
}

void saveOnlineState(const std::string& path, const OnlineState& state) {
    CheckpointWriter w(path);
    w.beginSection("online.meta");
    w.str(state.substModel);
    w.f64(state.theta);
    w.u64(state.seed);
    w.u64(state.updates);
    w.f64(state.logZ);
    w.beginSection("online.alignment");
    w.u32(static_cast<std::uint32_t>(state.alignment.sequenceCount()));
    for (const Sequence& s : state.alignment.sequences()) {
        w.str(s.name());
        w.str(s.toString());
    }
    w.beginSection("online.rng");
    writeRng(w, state.hostRng);
    w.u32(static_cast<std::uint32_t>(state.slotRngs.size()));
    for (const Mt19937& r : state.slotRngs) writeRng(w, r);
    w.beginSection("online.particles");
    w.u32(static_cast<std::uint32_t>(state.particles.size()));
    for (const OnlineParticle& p : state.particles) {
        writeGenealogy(w, p.tree);
        w.f64(p.logW);
        w.f64(p.logL);
    }
    w.commit();
}

OnlineState loadOnlineState(const std::string& path) {
    try {
        CheckpointReader r(path);
        OnlineState st;
        r.enterSection("online.meta");
        st.substModel = r.str();
        st.theta = r.f64();
        st.seed = r.u64();
        st.updates = r.u64();
        st.logZ = r.f64();
        r.enterSection("online.alignment");
        const std::uint32_t nSeq = r.u32();
        std::vector<Sequence> seqs;
        seqs.reserve(nSeq);
        for (std::uint32_t i = 0; i < nSeq; ++i) {
            std::string name = r.str();
            const std::string chars = r.str();
            seqs.push_back(Sequence::fromString(std::move(name), chars));
        }
        st.alignment = Alignment(std::move(seqs));
        r.enterSection("online.rng");
        readRng(r, st.hostRng);
        const std::uint32_t nRng = r.u32();
        st.slotRngs.resize(nRng);
        for (std::uint32_t i = 0; i < nRng; ++i) readRng(r, st.slotRngs[i]);
        r.enterSection("online.particles");
        const std::uint32_t nPart = r.u32();
        st.particles.resize(nPart);
        for (std::uint32_t i = 0; i < nPart; ++i) {
            st.particles[i].tree = readGenealogy(r);
            st.particles[i].logW = r.f64();
            st.particles[i].logL = r.f64();
        }
        return st;
    } catch (const ResumeError&) {
        throw;
    } catch (const CheckpointError& e) {
        throw ResumeError(e.what());
    } catch (const ParseError& e) {
        throw ResumeError(std::string("checkpoint error: online state: ") + e.what());
    }
}

double onlineAttachmentLogLik(const DataLikelihood& lik, const Genealogy& tree,
                              NodeId attach, double height) {
    if (static_cast<std::size_t>(tree.tipCount()) + 1 != lik.patterns().sequenceCount())
        throw ConfigError(
            "online: attachment evaluator needs exactly one more alignment "
            "sequence than the tree has tips");

    // The add-sequence scorer over one particle's slot layout: tips and
    // the new tip in [0, n], lower slots from n + 1, scratch after them.
    using Slot = SlotArena::Slot;
    const Slot n = static_cast<Slot>(tree.tipCount());
    SlotArena arena(lik);
    arena.resizeSlots(2 * n + AttachmentScorer::scratchSlots(tree.tipCount()));
    for (Slot t = 0; t <= n; ++t) arena.tipInit(t, static_cast<int>(t), nullptr);
    AttachmentScorer scorer(arena, tree, n + 1, 2 * n);
    scorer.buildLower();
    scorer.buildOuter();
    return scorer.logLikAt(attach, height);
}

}  // namespace mpcgs
