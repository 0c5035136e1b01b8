#include "core/locus_problem.h"

#include "util/error.h"

namespace mpcgs {

PooledRelativeLikelihood::PooledRelativeLikelihood(std::vector<LocusTerm> loci)
    : loci_(std::move(loci)) {
    require(!loci_.empty(), "PooledRelativeLikelihood: no loci");
    for (const LocusTerm& t : loci_)
        require(t.mutationScale > 0.0,
                "PooledRelativeLikelihood: mutation scale must be positive");
}

double PooledRelativeLikelihood::logL(double theta, ThreadPool* pool) const {
    require(theta > 0.0, "PooledRelativeLikelihood: theta must be positive");
    // Loci are independent, so the pooled curve is a plain sum. Summation
    // order is locus order (fixed), keeping the value bitwise reproducible;
    // the per-locus evaluation parallelizes over its samples on `pool`.
    double sum = 0.0;
    for (const LocusTerm& t : loci_) sum += t.rl.logL(theta * t.mutationScale, pool);
    return sum;
}

std::size_t PooledRelativeLikelihood::sampleCount() const {
    std::size_t n = 0;
    for (const LocusTerm& t : loci_) n += t.rl.sampleCount();
    return n;
}

}  // namespace mpcgs
