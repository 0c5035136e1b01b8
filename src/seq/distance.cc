#include "seq/distance.h"

namespace mpcgs {

std::vector<std::vector<double>> hammingMatrix(const Alignment& aln) {
    const std::size_t n = aln.sequenceCount();
    std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            d[i][j] = d[j][i] =
                static_cast<double>(aln.sequence(i).hammingDistance(aln.sequence(j)));
    return d;
}

}  // namespace mpcgs
