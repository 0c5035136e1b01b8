#include "lik/felsenstein.h"

namespace mpcgs {

DataLikelihood::DataLikelihood(const Alignment& aln, const SubstModel& model,
                               bool compressPatterns)
    : DataLikelihood(aln, model, RateCategories::uniformRate(), compressPatterns) {}

DataLikelihood::DataLikelihood(const Alignment& aln, const SubstModel& model,
                               RateCategories rates, bool compressPatterns)
    : patterns_(aln, compressPatterns),
      model_(model.clone()),
      pi_(model.stationary()),
      rates_(std::move(rates)) {
    rates_.validate();
    engine_ = std::make_unique<LikelihoodEngine>(patterns_, *model_, rates_);
}

double DataLikelihood::logLikelihood(const Genealogy& g, ThreadPool* pool) const {
    return engine_->logLikelihood(g, pool);
}

}  // namespace mpcgs
