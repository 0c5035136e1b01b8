// Per-locus likelihood engines for a multi-locus Dataset.
//
// Each locus owns its own SubstModel instance (stationary frequencies are
// estimated from that locus's data, §2.4) and its own DataLikelihood —
// pattern compression, partials arena and SIMD engine included — so locus
// evaluations never share mutable state and parallelize freely across the
// loci axis.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lik/felsenstein.h"
#include "seq/dataset.h"

namespace mpcgs {

/// Build the inference model `name` (F81 | JC69 | HKY85 | F84) with the
/// stationary frequencies of `aln`. Throws ConfigError on unknown names.
std::unique_ptr<SubstModel> makeInferenceModel(const std::string& name,
                                               const Alignment& aln);

/// One DataLikelihood per locus, in dataset order. DataLikelihood pins its
/// address (the engine holds references into it), so entries live behind
/// unique_ptr and the set itself is move-only.
class LocusLikelihoods {
  public:
    LocusLikelihoods(const Dataset& dataset, const std::string& modelName,
                     bool compressPatterns = true);

    const DataLikelihood& at(std::size_t l) const { return *liks_[l]; }

    LocusLikelihoods(const LocusLikelihoods&) = delete;
    LocusLikelihoods& operator=(const LocusLikelihoods&) = delete;
    LocusLikelihoods(LocusLikelihoods&&) = default;
    LocusLikelihoods& operator=(LocusLikelihoods&&) = default;

  private:
    std::vector<std::unique_ptr<SubstModel>> models_;
    std::vector<std::unique_ptr<DataLikelihood>> liks_;
};

}  // namespace mpcgs
