// A multiple sequence alignment: the D term of the paper — the observed
// data whose likelihood P(D|G) drives the sampler.
#pragma once

#include <string>
#include <vector>

#include "seq/nucleotide.h"
#include "seq/sequence.h"

namespace mpcgs {

class Alignment {
  public:
    Alignment() = default;
    explicit Alignment(std::vector<Sequence> seqs);

    std::size_t sequenceCount() const { return seqs_.size(); }
    std::size_t length() const { return seqs_.empty() ? 0 : seqs_[0].length(); }

    const Sequence& sequence(std::size_t i) const { return seqs_[i]; }
    const std::vector<Sequence>& sequences() const { return seqs_; }

    std::vector<std::string> names() const;

    /// Column `site` across sequences (one code per sequence).
    std::vector<NucCode> column(std::size_t site) const;

    /// Empirical base frequencies over all known sites (the paper's prior
    /// pi_Y, "approximated by the relative frequency of each nucleotide in
    /// all the sampling data", §2.4). Falls back to uniform when the
    /// alignment has no known bases; zero counts are floored at a small
    /// pseudo-frequency so no stationary frequency is exactly 0.
    BaseFreqs baseFrequencies() const;

    /// Number of polymorphic (segregating) columns.
    std::size_t segregatingSites() const;

    bool operator==(const Alignment&) const = default;

  private:
    std::vector<Sequence> seqs_;
};

}  // namespace mpcgs
