// Site-pattern compression.
//
// Identical alignment columns contribute identical per-site likelihoods, so
// they can be collapsed into unique patterns with multiplicity weights.
// LAMARC performs this optimization; the paper's GPU kernel does not
// (one thread per raw site). Both paths are supported — the speedup
// benches run uncompressed to match the paper's scaling dimension.
#pragma once

#include <cstddef>
#include <vector>

#include "seq/alignment.h"

namespace mpcgs {

class SitePatterns {
  public:
    /// Compress (or, with compress=false, pass through) the columns of an
    /// alignment. Pattern p covers `weightsData()[p]` original columns.
    explicit SitePatterns(const Alignment& aln, bool compress = true);

    std::size_t patternCount() const { return weights_.size(); }
    std::size_t sequenceCount() const { return nSeq_; }

    /// Sequence names in tip order, captured from the alignment — the SMC
    /// cloud labels its genealogies with these so sampled trees are
    /// exportable the same way MCMC genealogies are.
    const std::vector<std::string>& sequenceNames() const { return names_; }

    /// Raw pattern-major code matrix (patternCount x nSeq), for the strip
    /// kernels' tip fills.
    const NucCode* codesData() const { return codes_.data(); }

    /// Raw multiplicity array (patternCount), for the weighted root fold.
    const double* weightsData() const { return weights_.data(); }

  private:
    std::size_t nSeq_ = 0;
    std::vector<NucCode> codes_;     // patternCount x nSeq
    std::vector<double> weights_;
    std::vector<std::string> names_;
};

}  // namespace mpcgs
