// ArenaBackend — eager execution of the likelihood operation queue. Every
// operation runs its fused item at enqueue time, serially on the
// enqueueing thread; flush() is a no-op barrier. Same items, same slots as
// the batched backend, so the two agree bitwise — and this one stays the
// simplest thing to read when debugging a numerical question.
#include "lik/lik_backend.h"
#include "obs/metrics.h"

namespace mpcgs {
namespace detail {
namespace {

class ArenaBackend final : public SlotArenaBackend {
  public:
    using SlotArenaBackend::SlotArenaBackend;

    LikBackendKind kind() const override { return LikBackendKind::Arena; }

    void tipInit(Slot dst, int tip, double* rootLogL) override {
        tipItem(dst, tip, rootLogL);
    }

    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                 double* rootLogL) override {
        combineItem(parent, childA, lenA, childB, lenB, rootLogL);
    }

    void flush(ThreadPool* /*pool*/) override {
        const obs::PhaseTimer timer(obs::Counter::LikFlushNs);
        obs::add(obs::Counter::LikFlushes);
    }
};

}  // namespace

std::unique_ptr<LikelihoodBackend> makeArenaBackend(const DataLikelihood& lik) {
    return std::make_unique<ArenaBackend>(lik);
}

}  // namespace detail
}  // namespace mpcgs
