#include "core/structured_problem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"

namespace mpcgs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

StructuredMhProblem::StructuredMhProblem(const DataLikelihood& lik, MigrationModel model,
                                         double pathRefreshProb)
    : RegionPosterior(lik), model_(std::move(model)), pathRefreshProb_(pathRefreshProb) {
    model_.validate();
    if (pathRefreshProb_ < 0.0 || pathRefreshProb_ >= 1.0)
        throw ConfigError("StructuredMhProblem: pathRefreshProb must be in [0, 1)");
}

StructuredMhProblem::Proposal StructuredMhProblem::propose(const State& cur, Rng& rng) const {
    StructuredProposal p = rng.uniform01() < pathRefreshProb_
                               ? proposeMigrationPathRefresh(cur, model_, rng)
                               : proposeStructuredRecoalesce(cur, model_, rng);
    const Region region =
        recoalesceRegion(cur.tree(), p.state.tree(), p.target, p.rebuiltParent);
    return Proposal{std::move(p.state), p.logForward, p.logReverse, region};
}

int structuredCoordinateCount(int demeCount) {
    return demeCount + demeCount * (demeCount - 1);
}

std::string structuredCoordinateName(int demeCount, int coord) {
    if (coord < demeCount) return "theta_" + std::to_string(coord + 1);
    int off = coord - demeCount;
    for (int k = 0; k < demeCount; ++k)
        for (int l = 0; l < demeCount; ++l) {
            if (k == l) continue;
            if (off == 0)
                return "M_" + std::to_string(k + 1) + std::to_string(l + 1);
            --off;
        }
    throw ConfigError("structuredCoordinateName: coordinate out of range");
}

double getStructuredCoordinate(const MigrationModel& m, int coord) {
    const int K = m.demeCount();
    if (coord < K) return m.theta[static_cast<std::size_t>(coord)];
    int off = coord - K;
    for (int k = 0; k < K; ++k)
        for (int l = 0; l < K; ++l) {
            if (k == l) continue;
            if (off == 0) return m.rate(k, l);
            --off;
        }
    throw ConfigError("getStructuredCoordinate: coordinate out of range");
}

void setStructuredCoordinate(MigrationModel& m, int coord, double value) {
    const int K = m.demeCount();
    if (coord < K) {
        m.theta[static_cast<std::size_t>(coord)] = value;
        return;
    }
    int off = coord - K;
    for (int k = 0; k < K; ++k)
        for (int l = 0; l < K; ++l) {
            if (k == l) continue;
            if (off == 0) {
                m.setRate(k, l, value);
                return;
            }
            --off;
        }
    throw ConfigError("setStructuredCoordinate: coordinate out of range");
}

StructuredRelativeLikelihood::StructuredRelativeLikelihood(
    std::vector<StructuredSummary> samples, MigrationModel driving)
    : samples_(std::move(samples)), driving_(std::move(driving)) {
    if (samples_.empty())
        throw ConfigError("StructuredRelativeLikelihood: no samples");
    driving_.validate();
    logPriorAtDriving_.reserve(samples_.size());
    for (const StructuredSummary& s : samples_)
        logPriorAtDriving_.push_back(logStructuredPrior(s, driving_));
}

double StructuredRelativeLikelihood::logL(const MigrationModel& model) const {
    // Max-normalized log-space mean (§5.3 underflow discipline).
    std::vector<double> deltas;
    deltas.reserve(samples_.size());
    double maxDelta = -kInf;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const double d = logStructuredPrior(samples_[i], model) - logPriorAtDriving_[i];
        deltas.push_back(d);
        maxDelta = std::max(maxDelta, d);
    }
    if (maxDelta == -kInf) return -kInf;
    double acc = 0.0;
    for (const double d : deltas) acc += std::exp(d - maxDelta);
    return maxDelta + std::log(acc / static_cast<double>(samples_.size()));
}

double StructuredCoordinateSlice::logL(double x, ThreadPool*) const {
    if (!(x > 0.0) || !std::isfinite(x)) return -kInf;
    // Evaluate on a local copy: logL may be called concurrently (e.g. from
    // a pooled curve evaluation), and the slice itself stays immutable.
    MigrationModel m = pinned_;
    setStructuredCoordinate(m, coord_, x);
    return rl_.logL(m);
}

StructuredMleResult maximizeStructured(const StructuredRelativeLikelihood& rl,
                                       MigrationModel start, double tol, int maxSweeps,
                                       ThreadPool* pool) {
    start.validate();
    const int coords = structuredCoordinateCount(start.demeCount());
    StructuredMleResult result;
    result.model = std::move(start);
    for (int sweep = 0; sweep < maxSweeps; ++sweep) {
        double maxRel = 0.0;
        for (int c = 0; c < coords; ++c) {
            const double cur = getStructuredCoordinate(result.model, c);
            const StructuredCoordinateSlice slice(rl, result.model, c);
            const MleResult m = maximizeTheta(slice, cur, pool);
            setStructuredCoordinate(result.model, c, m.theta);
            result.logL = m.logL;
            maxRel = std::max(maxRel, std::abs(m.theta - cur) / std::max(cur, 1e-12));
        }
        result.sweeps = sweep + 1;
        if (maxRel < tol) {
            result.converged = true;
            break;
        }
    }
    return result;
}

SupportInterval structuredSupportInterval(const StructuredRelativeLikelihood& rl,
                                          const MigrationModel& mle, int coord, double drop,
                                          ThreadPool* pool) {
    const StructuredCoordinateSlice slice(rl, mle, coord);
    return supportInterval(slice, getStructuredCoordinate(mle, coord), drop, 1e4, pool);
}

}  // namespace mpcgs
