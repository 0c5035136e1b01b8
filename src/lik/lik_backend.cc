#include "lik/lik_backend.h"

#include "obs/metrics.h"
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
    : forest_{lik.patterns(), lik.model(), lik.rateCategories(), lik.rootFreqs()} {
    const std::size_t P = forest_.patterns.patternCount();
    const std::size_t C = forest_.rates.count();
    dataLen_ = C * P * 4;
    dataStride_ = roundUpTo(dataLen_, kCacheLineBytes / sizeof(double));
    scaleStride_ = roundUpTo(P, kCacheLineBytes / sizeof(double));
}

void SlotArenaBackend::resizeSlots(std::size_t n) {
    slots_ = n;
    data_.ensure(n * dataStride_);
    scale_.ensure(n * scaleStride_);
}

void SlotArenaBackend::tipItem(Slot dst, int tip, double* rootLogL) {
    forestTipItem(forest_, tip, dataPtr(dst), scalePtr(dst), rootLogL);
}

void SlotArenaBackend::combineItem(Slot parent, Slot childA, double lenA, Slot childB,
                                   double lenB, double* rootLogL) {
    const std::size_t computed =
        forestCombineItem(forest_, dataPtr(childA), scalePtr(childA), lenA,
                          dataPtr(childB), scalePtr(childB), lenB, dataPtr(parent),
                          scalePtr(parent), rootLogL);
    obs::add(obs::Counter::LikCombineOps);
    obs::add(obs::Counter::LikMatricesRequested, 2 * forest_.rates.count());
    obs::add(obs::Counter::LikMatricesComputed, computed);
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
