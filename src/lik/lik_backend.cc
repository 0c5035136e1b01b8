#include "lik/lik_backend.h"

#include "util/error.h"

namespace mpcgs {

const char* likBackendName(LikBackendKind kind) {
    switch (kind) {
        case LikBackendKind::Arena:
            return "arena";
        case LikBackendKind::Batched:
            return "batched";
    }
    return "?";
}

LikBackendKind parseLikBackend(const std::string& name) {
    if (name == "arena") return LikBackendKind::Arena;
    if (name == "batched") return LikBackendKind::Batched;
    throw ConfigError("unknown likelihood backend '" + name +
                      "' (choices: arena, batched)");
}

namespace detail {

SlotArenaBackend::SlotArenaBackend(const DataLikelihood& lik)
    : patterns_(lik.patterns()),
      model_(lik.model()),
      pi_(lik.rootFreqs()),
      rates_(lik.rateCategories()) {
    const std::size_t P = patterns_.patternCount();
    const std::size_t C = rates_.count();
    dataLen_ = C * P * 4;
    dataStride_ = roundUpTo(dataLen_, kCacheLineBytes / sizeof(double));
    scaleStride_ = roundUpTo(P, kCacheLineBytes / sizeof(double));
}

void SlotArenaBackend::resizeSlots(std::size_t n) {
    slots_ = n;
    data_.ensure(n * dataStride_);
    scale_.ensure(n * scaleStride_);
}

std::unique_ptr<LikelihoodBackend> makeArenaBackend(const DataLikelihood& lik);
std::unique_ptr<LikelihoodBackend> makeBatchedBackend(const DataLikelihood& lik);

}  // namespace detail

std::unique_ptr<LikelihoodBackend> makeLikelihoodBackend(LikBackendKind kind,
                                                         const DataLikelihood& lik) {
    switch (kind) {
        case LikBackendKind::Arena:
            return detail::makeArenaBackend(lik);
        case LikBackendKind::Batched:
            return detail::makeBatchedBackend(lik);
    }
    throw ConfigError("unknown likelihood backend kind");
}

}  // namespace mpcgs
