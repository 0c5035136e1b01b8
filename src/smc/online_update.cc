#include "smc/online_update.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "coalescent/prior.h"
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
// Tripod scorer: exact grafted-tree log-likelihood as a function of the
// attachment point, without ever building the grafted tree.
//
// Lower partials D_v (conditional vectors of the subtree below v against
// the ENLARGED pattern set) are supplied from outside — arena slots in
// the add-sequence path, CPU buffers in the test hook. The scorer adds the
// OUTER partials: for every non-root v with parent w,
//
//   S_v,c(y)  = sum_z M_c(t_w - t_v)(y, z) D_v,c(z)       (D pushed up v's
//                                                          branch)
//   T_v,c(y)  = P(data outside v's subtree | state y at w), including the
//               root marginalization over pi:
//                 v child of the root:  T_v = pi .* S_sib(v)
//                 otherwise:            T_v = U_w .* S_sib(v),
//                 U_w,c(y) = sum_y' T_w,c(y') M_c(len_w)(y', y),
//
// so the likelihood of the tree with a new tip X joined to branch (v, w)
// by a coalescent node u at height h in (t_v, t_w) factorizes per pattern
// and category as the tripod
//
//   site_c = sum_y T_v,c(y) sum_z M_c(t_w - h)(y, z) A_c(z) B_c(z),
//   A_c(z) = sum_a M_c(h - t_v)(z, a) D_v,c(a),
//   B_c(z) = sum_b M_c(h)(z, b) X_c(b),
//
// with per-pattern log scale scaleT_v + scaleD_v (the new tip carries
// scale 0). Attaching to the ROOT LINEAGE (u above the old root at height
// h > t_root) instead marginalizes pi at u directly:
//
//   site_c = sum_y pi_y [sum_z M_c(h - t_root)(y, z) D_root,c(z)]
//                       [sum_b M_c(h)(y, b) X_c(b)],
//
// valid because every supported model is time-reversible, so re-rooting at
// u leaves the likelihood unchanged. Matrix rows index the SOURCE
// (ancestral) state throughout, matching SubstModel::transition.
// ---------------------------------------------------------------------------
class TripodScorer {
  public:
    TripodScorer(const SitePatterns& patterns, const SubstModel& model,
                 const BaseFreqs& pi, const RateCategories& rates, const Genealogy& tree)
        : patterns_(patterns),
          model_(model),
          pi_(pi),
          rates_(rates),
          tree_(tree),
          P_(patterns.patternCount()),
          C_(rates.count()),
          vlen_(C_ * P_ * 4) {
        const std::size_t nodes = static_cast<std::size_t>(tree.nodeCount());
        lowData_.assign(nodes, nullptr);
        lowScale_.assign(nodes, nullptr);
        matsU_.resize(C_);
        matsA_.resize(C_);
        matsB_.resize(C_);
    }

    /// Lower conditional vectors of node `v`: data[(c*P+p)*4+x] plus the
    /// per-pattern log scale. Must be set for every node reachable from the
    /// root before buildOuter().
    void setLower(NodeId v, const double* data, const double* scale) {
        lowData_[static_cast<std::size_t>(v)] = data;
        lowScale_[static_cast<std::size_t>(v)] = scale;
    }

    /// The new tip's conditional vectors (indicator columns, scale 0).
    void setNewTip(const double* data) { tip_ = data; }

    /// Compute S, U and T for the whole tree (preorder, parents first).
    void buildOuter() {
        const std::size_t nodes = static_cast<std::size_t>(tree_.nodeCount());
        sBuf_.assign(nodes * vlen_, 0.0);
        uBuf_.assign(nodes * vlen_, 0.0);
        tBuf_.assign(nodes * vlen_, 0.0);
        tScale_.assign(nodes * P_, 0.0);

        // S_v for every non-root node.
        for (NodeId v = 0; v < tree_.nodeCount(); ++v) {
            if (v == tree_.root()) continue;
            const double len = tree_.branchLength(v);
            for (std::size_t c = 0; c < C_; ++c)
                matsA_[c] = model_.transition(rates_.rates[c] * len);
            const double* d = lowData_[static_cast<std::size_t>(v)];
            double* s = sBuf_.data() + static_cast<std::size_t>(v) * vlen_;
            for (std::size_t c = 0; c < C_; ++c)
                for (std::size_t p = 0; p < P_; ++p) {
                    const double* dp = d + (c * P_ + p) * 4;
                    double* sp = s + (c * P_ + p) * 4;
                    for (int y = 0; y < 4; ++y)
                        sp[y] = matsA_[c](y, 0) * dp[0] + matsA_[c](y, 1) * dp[1] +
                                matsA_[c](y, 2) * dp[2] + matsA_[c](y, 3) * dp[3];
                }
        }

        // U and T, parents before children.
        for (NodeId w : tree_.preorder()) {
            if (tree_.isTip(w)) continue;
            double* u = uBuf_.data() + static_cast<std::size_t>(w) * vlen_;
            if (w == tree_.root()) {
                for (std::size_t c = 0; c < C_; ++c)
                    for (std::size_t p = 0; p < P_; ++p)
                        for (int y = 0; y < 4; ++y)
                            u[(c * P_ + p) * 4 + y] = pi_[static_cast<std::size_t>(y)];
            } else {
                const double len = tree_.branchLength(w);
                for (std::size_t c = 0; c < C_; ++c)
                    matsA_[c] = model_.transition(rates_.rates[c] * len);
                const double* t = tBuf_.data() + static_cast<std::size_t>(w) * vlen_;
                for (std::size_t c = 0; c < C_; ++c)
                    for (std::size_t p = 0; p < P_; ++p) {
                        const double* tp = t + (c * P_ + p) * 4;
                        double* up = u + (c * P_ + p) * 4;
                        for (int y = 0; y < 4; ++y)
                            up[y] = matsA_[c](0, y) * tp[0] + matsA_[c](1, y) * tp[1] +
                                    matsA_[c](2, y) * tp[2] + matsA_[c](3, y) * tp[3];
                    }
            }
            const double* uScale =
                w == tree_.root() ? nullptr : tScale_.data() + static_cast<std::size_t>(w) * P_;

            for (int side = 0; side < 2; ++side) {
                const NodeId v = tree_.node(w).child[static_cast<std::size_t>(side)];
                const NodeId sib = tree_.node(w).child[static_cast<std::size_t>(1 - side)];
                const double* s = sBuf_.data() + static_cast<std::size_t>(sib) * vlen_;
                const double* sibScale = lowScale_[static_cast<std::size_t>(sib)];
                double* t = tBuf_.data() + static_cast<std::size_t>(v) * vlen_;
                double* ts = tScale_.data() + static_cast<std::size_t>(v) * P_;
                for (std::size_t c = 0; c < C_; ++c)
                    for (std::size_t p = 0; p < P_; ++p)
                        for (int y = 0; y < 4; ++y)
                            t[(c * P_ + p) * 4 + y] =
                                u[(c * P_ + p) * 4 + y] * s[(c * P_ + p) * 4 + y];
                for (std::size_t p = 0; p < P_; ++p)
                    ts[p] = (uScale ? uScale[p] : 0.0) + sibScale[p];
                // Per-pattern max rescale across categories so deep
                // outer products cannot underflow.
                for (std::size_t p = 0; p < P_; ++p) {
                    double m = 0.0;
                    for (std::size_t c = 0; c < C_; ++c)
                        for (int y = 0; y < 4; ++y)
                            m = std::max(m, t[(c * P_ + p) * 4 + y]);
                    if (m > 0.0 && std::isfinite(m)) {
                        const double inv = 1.0 / m;
                        for (std::size_t c = 0; c < C_; ++c)
                            for (int y = 0; y < 4; ++y) t[(c * P_ + p) * 4 + y] *= inv;
                        ts[p] += std::log(m);
                    }
                }
            }
        }
    }

    /// log-likelihood of the grafted tree for attachment node `v` at height
    /// `h`; v == root() means the root lineage (h above the old root).
    double logLikAt(NodeId v, double h) {
        constexpr double kNegInf = -std::numeric_limits<double>::infinity();
        double total = 0.0;
        if (v == tree_.root()) {
            const double tr = tree_.node(v).time;
            for (std::size_t c = 0; c < C_; ++c) {
                matsA_[c] = model_.transition(rates_.rates[c] * (h - tr));
                matsB_[c] = model_.transition(rates_.rates[c] * h);
            }
            const double* d = lowData_[static_cast<std::size_t>(v)];
            const double* dScale = lowScale_[static_cast<std::size_t>(v)];
            for (std::size_t p = 0; p < P_; ++p) {
                double site = 0.0;
                for (std::size_t c = 0; c < C_; ++c) {
                    const double* dp = d + (c * P_ + p) * 4;
                    const double* xp = tip_ + (c * P_ + p) * 4;
                    double acc = 0.0;
                    for (int y = 0; y < 4; ++y) {
                        const double a = matsA_[c](y, 0) * dp[0] + matsA_[c](y, 1) * dp[1] +
                                         matsA_[c](y, 2) * dp[2] + matsA_[c](y, 3) * dp[3];
                        const double b = matsB_[c](y, 0) * xp[0] + matsB_[c](y, 1) * xp[1] +
                                         matsB_[c](y, 2) * xp[2] + matsB_[c](y, 3) * xp[3];
                        acc += pi_[static_cast<std::size_t>(y)] * a * b;
                    }
                    site += rates_.weights[c] * acc;
                }
                const double logSite = site > 0.0 ? std::log(site) + dScale[p] : kNegInf;
                total += patterns_.weight(p) * logSite;
            }
            return total;
        }

        const NodeId w = tree_.node(v).parent;
        const double tv = tree_.node(v).time;
        const double tw = tree_.node(w).time;
        for (std::size_t c = 0; c < C_; ++c) {
            matsU_[c] = model_.transition(rates_.rates[c] * (tw - h));
            matsA_[c] = model_.transition(rates_.rates[c] * (h - tv));
            matsB_[c] = model_.transition(rates_.rates[c] * h);
        }
        const double* t = tBuf_.data() + static_cast<std::size_t>(v) * vlen_;
        const double* ts = tScale_.data() + static_cast<std::size_t>(v) * P_;
        const double* d = lowData_[static_cast<std::size_t>(v)];
        const double* dScale = lowScale_[static_cast<std::size_t>(v)];
        for (std::size_t p = 0; p < P_; ++p) {
            double site = 0.0;
            for (std::size_t c = 0; c < C_; ++c) {
                const double* tp = t + (c * P_ + p) * 4;
                const double* dp = d + (c * P_ + p) * 4;
                const double* xp = tip_ + (c * P_ + p) * 4;
                double ab[4];
                for (int z = 0; z < 4; ++z) {
                    const double a = matsA_[c](z, 0) * dp[0] + matsA_[c](z, 1) * dp[1] +
                                     matsA_[c](z, 2) * dp[2] + matsA_[c](z, 3) * dp[3];
                    const double b = matsB_[c](z, 0) * xp[0] + matsB_[c](z, 1) * xp[1] +
                                     matsB_[c](z, 2) * xp[2] + matsB_[c](z, 3) * xp[3];
                    ab[z] = a * b;
                }
                double acc = 0.0;
                for (int y = 0; y < 4; ++y) {
                    const double inner = matsU_[c](y, 0) * ab[0] + matsU_[c](y, 1) * ab[1] +
                                         matsU_[c](y, 2) * ab[2] + matsU_[c](y, 3) * ab[3];
                    acc += tp[y] * inner;
                }
                site += rates_.weights[c] * acc;
            }
            const double logSite =
                site > 0.0 ? std::log(site) + ts[p] + dScale[p] : kNegInf;
            total += patterns_.weight(p) * logSite;
        }
        return total;
    }

  private:
    const SitePatterns& patterns_;
    const SubstModel& model_;
    const BaseFreqs& pi_;
    const RateCategories& rates_;
    const Genealogy& tree_;
    std::size_t P_, C_, vlen_;
    std::vector<const double*> lowData_, lowScale_;
    const double* tip_ = nullptr;
    std::vector<double> sBuf_, uBuf_, tBuf_, tScale_;
    std::vector<Matrix4> matsU_, matsA_, matsB_;
};

/// Golden-section iterations of the per-candidate height optimization.
constexpr std::size_t kHeightSearchIterations = 24;

/// Fixed-iteration golden-section maximum of f over [lo, hi]. The
/// evaluation points are a deterministic function of (lo, hi, iters), so
/// the guided proposal stays a deterministic function of the particle
/// state (no adaptive tolerance).
template <class F>
double goldenSectionMax(double lo, double hi, std::size_t iters, F&& f) {
    constexpr double kInvPhi = 0.6180339887498949;
    double a = lo, b = hi;
    double x1 = b - kInvPhi * (b - a);
    double x2 = a + kInvPhi * (b - a);
    double f1 = f(x1);
    double f2 = f(x2);
    for (std::size_t i = 0; i < iters; ++i) {
        if (f1 < f2) {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + kInvPhi * (b - a);
            f2 = f(x2);
        } else {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - kInvPhi * (b - a);
            f1 = f(x1);
        }
    }
    return std::max(f1, f2);
}

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
    if (state.theta <= 0.0) throw ConfigError("online: theta must be positive");
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

    // --- Phase 1: rebuild every particle's lower partials against the new
    // pattern set. Slot map: tips [0, n] shared (the new tip is sequence
    // n), then (n-1) internal slots per particle, which only that
    // particle's postorder writes — so one launch over fixed particle
    // blocks rebuilds the whole cloud.
    const std::size_t tipSlots = static_cast<std::size_t>(n) + 1;
    const std::size_t perParticle = static_cast<std::size_t>(n) - 1;
    arena.resizeSlots(tipSlots + N * perParticle);
    const auto slotOf = [&](std::size_t p, NodeId id) {
        return static_cast<SlotArena::Slot>(
            id < n ? static_cast<std::size_t>(id)
                   : tipSlots + p * perParticle + static_cast<std::size_t>(id - n));
    };
    for (int t = 0; t <= n; ++t) arena.tipInit(static_cast<SlotArena::Slot>(t), t, nullptr);
    const int nodes = 2 * n - 1;
    launchBlocked(pool_, N, kParticleBlockSize, [&](std::size_t, std::size_t begin,
                                                 std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
            const Genealogy& g = state_.particles[p].tree;
            for (NodeId v : g.postorder()) {
                if (g.isTip(v)) continue;
                const NodeId a = g.node(v).child[0];
                const NodeId b = g.node(v).child[1];
                arena.combine(slotOf(p, v), slotOf(p, a), g.node(v).time - g.node(a).time,
                              slotOf(p, b), g.node(v).time - g.node(b).time, nullptr);
            }
        }
    });

    // --- Phase 2: guided attachment per particle, thread-parallel over
    // fixed particle blocks with slot-pinned RNG streams (bitwise invariant
    // to the worker count). Candidates are the 2n-2 non-root nodes in id
    // order plus the root lineage LAST; each candidate's weight is its
    // height-optimized tripod log-likelihood, softmax-normalized.
    std::vector<double> delta(N, 0.0);
    std::vector<double> newLogL(N, 0.0);
    std::vector<Genealogy> newTrees(N);
    launchBlocked(pool_, N, kParticleBlockSize, [&](std::size_t, std::size_t begin,
                                                 std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
            const OnlineParticle& pt = state_.particles[p];
            const Genealogy& g = pt.tree;
            Mt19937& rng = state_.slotRngs[p];

            TripodScorer scorer(lik.patterns(), lik.model(), lik.rootFreqs(),
                                lik.rateCategories(), g);
            for (NodeId v = 0; v < nodes; ++v)
                scorer.setLower(v, arena.slotData(slotOf(p, v)).data(),
                                arena.slotScale(slotOf(p, v)).data());
            scorer.setNewTip(arena.slotData(static_cast<SlotArena::Slot>(n)).data());
            scorer.buildOuter();

            std::vector<NodeId> cands;
            cands.reserve(static_cast<std::size_t>(nodes));
            for (NodeId v = 0; v < nodes; ++v)
                if (v != g.root()) cands.push_back(v);
            cands.push_back(g.root());  // the root lineage, by convention last

            const double tRoot = g.node(g.root()).time;
            std::vector<double> phi(cands.size());
            for (std::size_t i = 0; i < cands.size(); ++i) {
                const NodeId v = cands[i];
                const double lo = v == g.root() ? tRoot : g.node(v).time;
                const double hi =
                    v == g.root() ? tRoot + 2.0 * theta : g.node(g.node(v).parent).time;
                phi[i] = goldenSectionMax(lo, hi, kHeightSearchIterations,
                                          [&](double h) { return scorer.logLikAt(v, h); });
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

    // --- Phase 3 (serial): reweight, guard, commit. The fail point lives
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

    // --- Phase 4: ESS refresh. Threshold 1.0 refreshes unconditionally
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

    // Lower partials through the items the add-sequence path runs: slot =
    // node id, the new tip (sequence n) in the slot after the last node.
    using Slot = SlotArena::Slot;
    SlotArena arena(lik);
    const Slot newTip = static_cast<Slot>(tree.nodeCount());
    arena.resizeSlots(newTip + 1u);
    for (int t = 0; t < tree.tipCount(); ++t)
        arena.tipInit(static_cast<Slot>(t), t, nullptr);
    arena.tipInit(newTip, tree.tipCount(), nullptr);
    for (NodeId v : tree.postorder()) {
        if (tree.isTip(v)) continue;
        const NodeId a = tree.node(v).child[0];
        const NodeId b = tree.node(v).child[1];
        arena.combine(static_cast<Slot>(v), static_cast<Slot>(a),
                      tree.node(v).time - tree.node(a).time, static_cast<Slot>(b),
                      tree.node(v).time - tree.node(b).time, nullptr);
    }

    TripodScorer scorer(lik.patterns(), lik.model(), lik.rootFreqs(), lik.rateCategories(),
                        tree);
    for (NodeId v = 0; v < tree.nodeCount(); ++v)
        scorer.setLower(v, arena.slotData(static_cast<Slot>(v)).data(),
                        arena.slotScale(static_cast<Slot>(v)).data());
    scorer.setNewTip(arena.slotData(newTip).data());
    scorer.buildOuter();
    return scorer.logLikAt(attach, height);
}

}  // namespace mpcgs
