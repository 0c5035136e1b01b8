#include "core/structured_recoalesce.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Migration-target draw shared by both proposal kernels: `u` is uniform
/// on [0, totalRateFrom(from)); walk the off-diagonal rates, with a
/// reverse-scan guard for u landing exactly on the total from rounding.
int sampleMigrationTarget(const MigrationModel& model, int from, double u) {
    for (int l = 0; l < model.demeCount(); ++l) {
        if (l == from) continue;
        const double rate = model.rate(from, l);
        if (u < rate) return l;
        u -= rate;
    }
    for (int l = model.demeCount() - 1; l >= 0; --l)
        if (l != from && model.rate(from, l) > 0.0) return l;
    require(false, "sampleMigrationTarget: no positive migration rate");
    return from;
}

/// Log density of a FREE label-chain path on [start, end): jumps `events`
/// (ascending, strictly inside), no conditioning on the end deme. Returns
/// -inf for infeasible realizations.
double logFreePathDensity(double start, double end, int startDeme,
                          std::span<const MigrationEvent> events,
                          const MigrationModel& model) {
    int d = startDeme;
    double t = start;
    double logDen = 0.0;
    for (const MigrationEvent& e : events) {
        if (!(e.time > t) || !(e.time < end) || e.toDeme == d) return -kInf;
        const double rate = model.rate(d, e.toDeme);
        if (!(rate > 0.0)) return -kInf;
        logDen += -model.totalRateFrom(d) * (e.time - t) + std::log(rate);
        t = e.time;
        d = e.toDeme;
    }
    logDen += -model.totalRateFrom(d) * (end - t);
    return logDen;
}

}  // namespace

StructuredLineageIndex::StructuredLineageIndex(const StructuredGenealogy& g, NodeId root,
                                               const MigrationModel& model)
    : model_(model) {
    const Genealogy& tree = g.tree();
    std::vector<NodeId> stack{root};
    std::vector<NodeId> component;
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        component.push_back(id);
        for (const NodeId c : tree.node(id).child)
            if (c != kNoNode) stack.push_back(c);
    }
    std::sort(component.begin(), component.end());

    for (const NodeId id : component) {
        if (id == root) {
            segments_.push_back({tree.node(id).time, kInf, g.deme(id), id});
            boundaries_.push_back(tree.node(id).time);
            continue;
        }
        const double lo = tree.node(id).time;
        const double hi = tree.node(tree.node(id).parent).time;
        double t = lo;
        int d = g.deme(id);
        for (const MigrationEvent& e : g.branchEvents(id)) {
            segments_.push_back({t, e.time, d, id});
            boundaries_.push_back(t);
            t = e.time;
            d = e.toDeme;
        }
        segments_.push_back({t, hi, d, id});
        boundaries_.push_back(t);
        boundaries_.push_back(hi);
    }
    std::sort(boundaries_.begin(), boundaries_.end());
    boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                      boundaries_.end());

    // Per-interval deme counts via a difference array over the boundary
    // grid, so the hazard lookups inside the sampling/replay loops are
    // O(log S) instead of a full segment scan per interval crossed.
    const std::size_t K = static_cast<std::size_t>(model.demeCount());
    const std::size_t B = boundaries_.size();
    counts_.assign(B * K, 0);
    for (const Segment& s : segments_) {
        const auto beginIdx = static_cast<std::size_t>(
            std::lower_bound(boundaries_.begin(), boundaries_.end(), s.begin) -
            boundaries_.begin());
        counts_[beginIdx * K + static_cast<std::size_t>(s.deme)] += 1;
        if (s.end != kInf) {
            const auto endIdx = static_cast<std::size_t>(
                std::lower_bound(boundaries_.begin(), boundaries_.end(), s.end) -
                boundaries_.begin());
            counts_[endIdx * K + static_cast<std::size_t>(s.deme)] -= 1;
        }
    }
    for (std::size_t i = 1; i < B; ++i)
        for (std::size_t k = 0; k < K; ++k) counts_[i * K + k] += counts_[(i - 1) * K + k];
}

int StructuredLineageIndex::countInDeme(double t, int d) const {
    if (boundaries_.empty() || t < boundaries_.front()) return 0;
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(boundaries_.begin(), boundaries_.end(), t) -
        boundaries_.begin() - 1);
    return counts_[idx * static_cast<std::size_t>(model_.demeCount()) +
                   static_cast<std::size_t>(d)];
}

std::vector<NodeId> StructuredLineageIndex::nodesInDeme(double t, int d) const {
    std::vector<NodeId> out;
    for (const Segment& s : segments_)
        if (s.deme == d && s.begin <= t && t < s.end) out.push_back(s.node);
    // segments_ is sorted by (node, begin) and a node's segments are
    // disjoint in time, so `out` is already in ascending node order.
    return out;
}

double StructuredLineageIndex::hazard(double t, int d) const {
    return 2.0 * countInDeme(t, d) / model_.theta[static_cast<std::size_t>(d)] +
           model_.totalRateFrom(d);
}

double StructuredLineageIndex::nextBoundary(double t) const {
    const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), t);
    return it == boundaries_.end() ? kInf : *it;
}

StructuredLineageIndex::Path StructuredLineageIndex::samplePath(double start, int startDeme,
                                                                Rng& rng) const {
    Path path;
    double t = start;
    int d = startDeme;
    double logDen = 0.0;
    for (;;) {
        const double b = nextBoundary(t);
        const int m = countInDeme(t, d);
        const double theta = model_.theta[static_cast<std::size_t>(d)];
        const double coal = 2.0 * m / theta;
        const double migTotal = model_.totalRateFrom(d);
        const double total = coal + migTotal;
        require(total > 0.0, "structured recoalescence: zero total hazard");

        const double wait = rng.exponential(total);
        if (t + wait >= b) {
            logDen -= total * (b - t);
            t = b;
            continue;
        }
        t += wait;
        logDen -= total * wait;

        double u = rng.uniform01() * total;
        if (u < coal) {
            // Coalescence: the specific-lineage density is 2/theta_d (total
            // hazard 2m/theta times a uniform 1/m target choice).
            logDen += std::log(2.0 / theta);
            const auto nodes = nodesInDeme(t, d);
            path.attachNode = nodes[static_cast<std::size_t>(rng.below(nodes.size()))];
            path.attachTime = t;
            path.attachDeme = d;
            path.logDensity = logDen;
            return path;
        }
        const int to = sampleMigrationTarget(model_, d, u - coal);
        logDen += std::log(model_.rate(d, to));
        path.events.push_back({t, to});
        d = to;
    }
}

double StructuredLineageIndex::logPathDensity(double start, int startDeme,
                                              std::span<const MigrationEvent> events,
                                              double attachTime, NodeId attachNode) const {
    double t = start;
    int d = startDeme;
    double logDen = 0.0;
    std::size_t ei = 0;
    for (;;) {
        const double nextEvent = ei < events.size() ? events[ei].time : attachTime;
        if (!(nextEvent > t)) return -kInf;
        // Integrate the survival hazard up to the next event, crossing
        // index boundaries where the same-deme lineage count changes.
        while (t < nextEvent) {
            const double b = std::min(nextBoundary(t), nextEvent);
            logDen -= hazard(t, d) * (b - t);
            t = b;
        }
        if (ei < events.size()) {
            const int to = events[ei].toDeme;
            if (to == d) return -kInf;
            const double rate = model_.rate(d, to);
            if (!(rate > 0.0)) return -kInf;
            logDen += std::log(rate);
            d = to;
            ++ei;
            continue;
        }
        // Attachment: the target lineage must be in the path's deme.
        const auto nodes = nodesInDeme(attachTime, d);
        if (std::find(nodes.begin(), nodes.end(), attachNode) == nodes.end()) return -kInf;
        logDen += std::log(2.0 / model_.theta[static_cast<std::size_t>(d)]);
        return logDen;
    }
}

StructuredProposal proposeStructuredRecoalesce(const StructuredGenealogy& g,
                                               const MigrationModel& model, Rng& rng) {
    StructuredGenealogy work = g;
    Genealogy& tree = work.tree();
    const int nodes = tree.nodeCount();

    // Uniform non-root target v.
    NodeId v;
    do {
        v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (v == tree.root());

    const NodeId p = tree.node(v).parent;
    const NodeId a = tree.node(p).parent;  // may be kNoNode (p is the root)
    const double tOld = tree.node(p).time;
    const NodeId sib = tree.sibling(v);

    // The reverse realization: v's old migration path plus the attachment
    // to the sibling's lineage at tOld. When dissolving the old root
    // destroys migration events on the sibling's branch, the original
    // state cannot be rebuilt by this mechanism and the reverse density is
    // honestly zero.
    const std::vector<MigrationEvent> oldPath = work.branchEvents(v);
    const bool oldStateReachable = (a != kNoNode) || work.branchEvents(sib).empty();

    // Dissolve p: the sibling reconnects to the grandparent carrying the
    // concatenated migration path (or becomes the component root, whose
    // lineage is label-constant by convention).
    work.branchEvents(v).clear();
    std::vector<MigrationEvent> merged = work.branchEvents(sib);
    merged.insert(merged.end(), work.branchEvents(p).begin(), work.branchEvents(p).end());
    work.branchEvents(p).clear();
    tree.unlink(v);
    tree.unlink(sib);
    if (a != kNoNode) {
        tree.unlink(p);
        tree.link(a, sib);
        work.branchEvents(sib) = std::move(merged);
    } else {
        tree.setRoot(sib);
        work.branchEvents(sib).clear();
    }
    const NodeId componentRoot = (a == kNoNode) ? sib : tree.root();

    const double tv = tree.node(v).time;
    const int dv = work.deme(v);
    const StructuredLineageIndex index(work, componentRoot, model);
    const double logReverse =
        oldStateReachable ? index.logPathDensity(tv, dv, oldPath, tOld, sib) : -kInf;

    const StructuredLineageIndex::Path fwd = index.samplePath(tv, dv, rng);
    const NodeId w = fwd.attachNode;
    const double s = fwd.attachTime;

    // Re-insert p at time s above w (or as the new root when w is the
    // component root and the attachment lies on its semi-infinite lineage).
    tree.node(p).time = s;
    work.setDeme(p, fwd.attachDeme);
    work.branchEvents(v) = fwd.events;
    if (w == componentRoot && tree.node(w).parent == kNoNode) {
        tree.link(p, w);
        tree.link(p, v);
        tree.setRoot(p);
        // The component root's lineage carries no events, so the new top
        // branch (w -> p) is event-free and p's deme equals w's.
    } else {
        const NodeId u = tree.node(w).parent;
        require(u != kNoNode, "structured recoalescence: attachment branch has no parent");
        tree.unlink(w);
        tree.link(u, p);
        tree.link(p, w);
        tree.link(p, v);
        // Split w's migration path at s: events below stay on w, events
        // above continue on p's new branch toward u.
        std::vector<MigrationEvent> below, above;
        for (const MigrationEvent& e : work.branchEvents(w))
            (e.time <= s ? below : above).push_back(e);
        work.branchEvents(w) = std::move(below);
        work.branchEvents(p) = std::move(above);
    }

    return StructuredProposal{std::move(work), fwd.logDensity, logReverse, v, p};
}

StructuredProposal proposeMigrationPathRefresh(const StructuredGenealogy& g,
                                               const MigrationModel& model, Rng& rng) {
    StructuredGenealogy work = g;
    const Genealogy& tree = work.tree();
    const int nodes = tree.nodeCount();

    NodeId w;
    do {
        w = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (w == tree.root());

    const double lo = tree.node(w).time;
    const double hi = tree.node(tree.node(w).parent).time;
    const int d0 = work.deme(w);

    const double logReverse =
        logFreePathDensity(lo, hi, d0, work.branchEvents(w), model);

    // Free simulation of the label chain over [lo, hi); landing in the
    // wrong deme leaves the proposal inconsistent and the posterior -inf.
    std::vector<MigrationEvent> events;
    double t = lo;
    int d = d0;
    double logForward = 0.0;
    for (;;) {
        const double rate = model.totalRateFrom(d);
        if (!(rate > 0.0)) break;  // absorbing label (K == 1): empty path
        const double wait = rng.exponential(rate);
        if (t + wait >= hi) {
            logForward -= rate * (hi - t);
            break;
        }
        t += wait;
        logForward -= rate * wait;
        const int to = sampleMigrationTarget(model, d, rng.uniform01() * rate);
        logForward += std::log(model.rate(d, to));
        events.push_back({t, to});
        d = to;
    }
    work.branchEvents(w) = std::move(events);

    return StructuredProposal{std::move(work), logForward, logReverse};
}

}  // namespace mpcgs
