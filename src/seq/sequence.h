// Named nucleotide sequences, one code per byte.
//
// The paper packs sequence data 2 bits per base into CUDA constant memory
// (§5.1.3). The CPU engine reads the pattern-major codes of SitePatterns
// (lik/site_pattern.h) instead, so a sequence keeps its codes unpacked.
#pragma once

#include <string>
#include <vector>

#include "seq/nucleotide.h"

namespace mpcgs {

/// A named nucleotide sequence (unpacked, one code per byte).
class Sequence {
  public:
    Sequence() = default;
    Sequence(std::string name, std::vector<NucCode> codes)
        : name_(std::move(name)), codes_(std::move(codes)) {}

    /// Parse from characters; throws ParseError on invalid characters.
    static Sequence fromString(std::string name, const std::string& chars);

    const std::string& name() const { return name_; }

    std::size_t length() const { return codes_.size(); }
    NucCode at(std::size_t i) const { return codes_[i]; }
    const std::vector<NucCode>& codes() const { return codes_; }

    /// Render as characters.
    std::string toString() const;

    /// Number of positions that differ from `other` (both known); the raw
    /// distance measure of §5.1.3's UPGMA initialization.
    std::size_t hammingDistance(const Sequence& other) const;

    bool operator==(const Sequence&) const = default;

  private:
    std::string name_;
    std::vector<NucCode> codes_;
};

}  // namespace mpcgs
