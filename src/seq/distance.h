// Pairwise sequence distances feeding the UPGMA initial tree (§5.1.3: "the
// distance between individual sequences is taken to be the number of base
// pair positions that are different between the two sequences").
#pragma once

#include <vector>

#include "seq/alignment.h"

namespace mpcgs {

/// Raw count of differing (known) positions — the paper's measure.
std::vector<std::vector<double>> hammingMatrix(const Alignment& aln);

}  // namespace mpcgs
