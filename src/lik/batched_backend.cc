// BatchedBackend — cloud-wide batched execution of the likelihood
// operation queue (the paper's device-kernel batching discipline, §5.2,
// applied to the SMC likelihood path).
//
// Enqueue is a lock-free append into pre-sized operation arrays (one
// atomic fetch_add per op), so a whole generation of particles can queue
// its combines from inside the propagation launch. flush() then runs one
// flat launch per operation kind with ONE item per operation: first the
// tip fills, then the combines. Each combine item packs its own branch
// matrices, prunes every rate category, rescales and folds its root
// (lik/pruning_kernels.h), so an SMC generation — combines only — is a
// single launch of N items.
//
// Results are slot-/pointer-indexed, so the nondeterministic enqueue order
// under concurrency never affects values: the same compiled item runs
// over the same slots whatever the array order or thread count. Within
// one batch, a combine's parent must not feed another queued combine (the
// SMC generation structure guarantees this); combines may read tips
// filled by the same batch.
#include <atomic>
#include <vector>

#include "lik/lik_backend.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace mpcgs {
namespace detail {
namespace {

struct TipOp {
    LikelihoodBackend::Slot dst;
    int tip;
    double* rootLogL;
};

struct CombineOp {
    LikelihoodBackend::Slot parent, childA, childB;
    double lenA, lenB;
    double* rootLogL;
};

class BatchedBackend final : public SlotArenaBackend {
  public:
    using SlotArenaBackend::SlotArenaBackend;

    LikBackendKind kind() const override { return LikBackendKind::Batched; }

    void resizeSlots(std::size_t n) override {
        SlotArenaBackend::resizeSlots(n);
        // At most one op per slot per batch (a slot is written once per
        // generation), so slotCount bounds both queues.
        if (tipOps_.size() < n) {
            tipOps_.resize(n);
            combineOps_.resize(n);
        }
    }

    void tipInit(Slot dst, int tip, double* rootLogL) override {
        tipOps_[claim(nTips_, tipOps_.size())] = {dst, tip, rootLogL};
    }

    void combine(Slot parent, Slot childA, double lenA, Slot childB, double lenB,
                 double* rootLogL) override {
        combineOps_[claim(nCombines_, combineOps_.size())] = {parent, childA, childB,
                                                              lenA,   lenB,   rootLogL};
    }

    void flush(ThreadPool* pool) override;

  private:
    static std::size_t claim(std::atomic<std::size_t>& counter, std::size_t cap) {
        const std::size_t i = counter.fetch_add(1, std::memory_order_relaxed);
        if (i >= cap)
            throw InvariantError("likelihood batch overflows its slot-sized queue");
        return i;
    }

    std::vector<TipOp> tipOps_;
    std::vector<CombineOp> combineOps_;
    std::atomic<std::size_t> nTips_{0}, nCombines_{0};
};

void BatchedBackend::flush(ThreadPool* pool) {
    const obs::PhaseTimer timer(obs::Counter::LikFlushNs);
    forEachIndex(
        pool, nTips_.load(std::memory_order_relaxed),
        [&](std::size_t i) {
            const TipOp& op = tipOps_[i];
            tipItem(op.dst, op.tip, op.rootLogL);
        },
        /*grain=*/1);
    forEachIndex(
        pool, nCombines_.load(std::memory_order_relaxed),
        [&](std::size_t i) {
            const CombineOp& op = combineOps_[i];
            combineItem(op.parent, op.childA, op.lenA, op.childB, op.lenB, op.rootLogL);
        },
        /*grain=*/1);
    obs::add(obs::Counter::LikFlushes);
    nTips_.store(0, std::memory_order_relaxed);
    nCombines_.store(0, std::memory_order_relaxed);
}

}  // namespace

std::unique_ptr<LikelihoodBackend> makeBatchedBackend(const DataLikelihood& lik) {
    return std::make_unique<BatchedBackend>(lik);
}

}  // namespace detail
}  // namespace mpcgs
