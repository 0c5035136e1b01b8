#include "core/recoalesce.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mpcgs {

LineageIndex::LineageIndex(const Genealogy& g, NodeId root) : g_(g), root_(root) {
    // Sweep construction: every branch [t_w, t_parent(w)) contributes a +1
    // at its lower end and a -1 at its upper end; the root lineage is +1 at
    // t_root with no matching -1 (it extends to infinity). Prefix sums over
    // the sorted distinct event times give the crossing count per segment
    // in O(n log n).
    std::vector<std::pair<double, int>> events;
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const TreeNode& nd = g_.node(id);
        events.emplace_back(nd.time, +1);
        if (id != root_) events.emplace_back(g_.node(nd.parent).time, -1);
        for (const NodeId c : nd.child)
            if (c != kNoNode) stack.push_back(c);
    }
    std::sort(events.begin(), events.end());

    boundaries_.reserve(events.size());
    count_.reserve(events.size());
    int running = 0;
    for (std::size_t i = 0; i < events.size();) {
        const double t = events[i].first;
        while (i < events.size() && events[i].first == t) {
            running += events[i].second;
            ++i;
        }
        boundaries_.push_back(t);
        count_.push_back(running);
    }
}

std::vector<NodeId> LineageIndex::crossingNodes(double t) const {
    std::vector<NodeId> out;
    std::vector<NodeId> walk{root_};
    while (!walk.empty()) {
        const NodeId id = walk.back();
        walk.pop_back();
        const TreeNode& nd = g_.node(id);
        if (id == root_) {
            if (t >= nd.time) out.push_back(id);
        } else if (nd.time <= t && t < g_.node(nd.parent).time) {
            out.push_back(id);
        }
        for (const NodeId c : nd.child)
            if (c != kNoNode) walk.push_back(c);
    }
    return out;
}

double LineageIndex::integrateCount(double a, double b) const {
    require(b >= a, "integrateCount: inverted bounds");
    double acc = 0.0;
    for (std::size_t i = 0; i < boundaries_.size(); ++i) {
        const double lo = std::max(a, boundaries_[i]);
        const double hi = (i + 1 < boundaries_.size())
                              ? std::min(b, boundaries_[i + 1])
                              : b;  // final segment extends to infinity
        if (hi > lo) acc += static_cast<double>(count_[i]) * (hi - lo);
    }
    return acc;
}

double LineageIndex::sampleAttachTime(double start, double theta, Rng& rng) const {
    require(theta > 0.0, "sampleAttachTime: theta must be positive");
    // Piecewise-constant hazard 2 m(t) / theta; walk segments, drawing one
    // exponential per segment.
    double t = start;
    for (std::size_t i = 0; i < boundaries_.size(); ++i) {
        const double segEnd = (i + 1 < boundaries_.size())
                                  ? boundaries_[i + 1]
                                  : std::numeric_limits<double>::infinity();
        if (segEnd <= t) continue;
        const int m = count_[i];
        if (t < boundaries_[i]) t = boundaries_[i];
        if (m <= 0) {
            t = segEnd;
            continue;
        }
        const double wait = rng.exponential(2.0 * m / theta);
        if (t + wait < segEnd) return t + wait;
        t = segEnd;
    }
    // Unreachable: the last segment has m == 1 and infinite extent, so the
    // exponential above always lands.
    require(false, "sampleAttachTime: fell off the lineage index");
    return t;
}

double LineageIndex::logAttachDensity(double start, double s, double theta) const {
    require(theta > 0.0, "logAttachDensity: theta must be positive");
    if (s < start) return -std::numeric_limits<double>::infinity();
    return std::log(2.0 / theta) - (2.0 / theta) * integrateCount(start, s);
}

RecoalesceProposal proposeRecoalesce(const Genealogy& g, double theta, Rng& rng) {
    if (theta <= 0.0) throw ConfigError("proposeRecoalesce: theta must be positive");

    Genealogy work = g;
    const int nodes = work.nodeCount();

    // Uniform non-root target v.
    NodeId v;
    do {
        v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
    } while (v == work.root());

    const NodeId p = work.node(v).parent;
    const NodeId a = work.node(p).parent;  // may be kNoNode (p is the root)
    const double tOld = work.node(p).time;

    // Dissolve p: sibling reconnects to the grandparent (or becomes the
    // component root when p was the root).
    const NodeId sib = work.sibling(v);
    work.unlink(v);
    work.unlink(sib);
    if (a != kNoNode) {
        work.unlink(p);
        work.link(a, sib);
    }
    NodeId componentRoot = (a == kNoNode) ? sib : work.root();
    if (a == kNoNode) work.setRoot(sib);

    // Both directional densities are measured on the same detached
    // structure.
    const double tv = work.node(v).time;
    const LineageIndex index(work, componentRoot);
    const double logReverse = index.logAttachDensity(tv, tOld, theta);

    const double s = index.sampleAttachTime(tv, theta, rng);
    const double logForward = index.logAttachDensity(tv, s, theta);

    // Uniform choice among the lineages crossing s.
    const auto crossing = index.crossingNodes(s);
    require(!crossing.empty(), "proposeRecoalesce: no lineage at attachment time");
    const NodeId w = crossing[static_cast<std::size_t>(rng.below(crossing.size()))];

    // Re-insert p at time s above w (or as the new root when w is the
    // component root and s lies above it).
    work.node(p).time = s;
    if (w == componentRoot && s >= work.node(componentRoot).time &&
        work.node(w).parent == kNoNode) {
        work.link(p, w);
        work.link(p, v);
        work.setRoot(p);
    } else {
        const NodeId u = work.node(w).parent;
        require(u != kNoNode, "proposeRecoalesce: attachment branch has no parent");
        work.unlink(w);
        work.link(u, p);
        work.link(p, w);
        work.link(p, v);
    }

    return RecoalesceProposal{std::move(work), logForward, logReverse, v, p};
}

}  // namespace mpcgs
