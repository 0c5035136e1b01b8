#include "par/kernel.h"

#include <limits>
#include <vector>

#include "util/logspace.h"

namespace mpcgs {

double blockReduceLogSumExp(ThreadPool* pool, std::span<const double> logValues,
                            std::size_t blockDim) {
    if (logValues.empty()) return -std::numeric_limits<double>::infinity();
    blockDim = std::max<std::size_t>(1, blockDim);
    const std::size_t blocks = (logValues.size() + blockDim - 1) / blockDim;
    std::vector<double> partial(blocks);
    forEachIndex(
        pool, blocks,
        [&](std::size_t b) {
            const std::size_t lo = b * blockDim;
            const std::size_t hi = std::min(lo + blockDim, logValues.size());
            partial[b] = logSumExp(logValues.subspan(lo, hi - lo));
        },
        1);
    return logSumExp(partial);
}

}  // namespace mpcgs
