#include "lik/slot_arena.h"

#include "obs/metrics.h"

namespace mpcgs {

SlotArena::SlotArena(const DataLikelihood& lik)
    : forest_{lik.patterns(), lik.model(), lik.rateCategories(), lik.rootFreqs()} {
    const std::size_t P = forest_.patterns.patternCount();
    const std::size_t C = forest_.rates.count();
    dataLen_ = C * stripLength(P);
    scaleStride_ = roundUpTo(P, kCacheLineBytes / sizeof(double));
}

void SlotArena::resizeSlots(std::size_t n) {
    slots_ = n;
    data_.ensure(n * dataLen_);
    scale_.ensure(n * scaleStride_);
}

void SlotArena::tipInit(Slot dst, int tip, double* rootLogL) {
    forestTipItem(forest_, tip, dataPtr(dst), scalePtr(dst), rootLogL);
}

void SlotArena::combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                        double* rootLogL) {
    const std::size_t computed =
        forestCombineItem(forest_, dataPtr(childA), scalePtr(childA), lenA,
                          dataPtr(childB), scalePtr(childB), lenB, dataPtr(parent),
                          scalePtr(parent), rootLogL);
    obs::add(obs::Counter::LikCombineOps);
    obs::add(obs::Counter::LikMatricesRequested, 2 * forest_.rates.count());
    obs::add(obs::Counter::LikMatricesComputed, computed);
}

}  // namespace mpcgs
