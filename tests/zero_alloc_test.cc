// Counting-allocator verification of the zero-per-step-allocation
// contract: the parallel runtime's launch machinery and the likelihood
// engine's steady-state evaluation path must not touch the heap once warm.
// Global operator new/delete are replaced in this translation unit's
// binary, counting allocations inside explicit measurement windows.
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/neighborhood.h"
#include "lik/felsenstein.h"
#include "lik/slot_arena.h"
#include "lik/partials_buffer.h"
#include "obs/metrics.h"
#include "par/kernel.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/smc_sampler.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::size_t> gAllocs{0};

void* countedAlloc(std::size_t size) {
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (!p) throw std::bad_alloc();
    return p;
}

void* countedAlignedAlloc(std::size_t size, std::size_t align) {
    if (gCounting.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       size == 0 ? align : size) != 0)
        throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace mpcgs {
namespace {

// The whole binary runs with the metrics registry ARMED: the zero-alloc
// contract must hold with observability on, or armed production runs
// would silently lose the property these tests defend. Registry shards
// are static storage claimed lazily per thread — no heap involved.
const bool gObsArmed = [] {
    obs::arm();
    return true;
}();

/// Counts heap allocations between construction and stop().
class AllocWindow {
  public:
    AllocWindow() {
        gAllocs.store(0, std::memory_order_relaxed);
        gCounting.store(true, std::memory_order_seq_cst);
    }
    std::size_t stop() {
        gCounting.store(false, std::memory_order_seq_cst);
        return gAllocs.load(std::memory_order_relaxed);
    }
    ~AllocWindow() { gCounting.store(false, std::memory_order_seq_cst); }
};

TEST(ZeroAllocTest, LaunchMachineryAllocatesNothingWhenWarm) {
    ThreadPool pool(4);
    std::vector<double> out(512, 0.0);
    // Warm-up: first launches may fault in worker state.
    for (int r = 0; r < 50; ++r)
        pool.parallelFor(out.size(), [&](std::size_t i) { out[i] += 1.0; });

    AllocWindow window;
    for (int r = 0; r < 2000; ++r) {
        pool.parallelFor(out.size(), [&](std::size_t i) { out[i] += 1.0; });
        launchChains(&pool, 64, [&](std::size_t i) { out[i] -= 0.5; });
    }
    const std::size_t allocs = window.stop();
    EXPECT_EQ(allocs, 0u);
    EXPECT_DOUBLE_EQ(out[0], 50.0 + 2000.0 * 1.0 - 2000.0 * 0.5);
}

TEST(ZeroAllocTest, SerialLikelihoodSteadyStateAllocatesNothing) {
    Mt19937 rng(97);
    const int n = 12;
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(truth, *gen, {400, 1.0}, rng);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    const Genealogy g = simulateCoalescent(n, 1.0, rng);

    // Warm the thread-local evaluation scratch.
    double ref = 0.0;
    for (int r = 0; r < 3; ++r) ref = lik.logLikelihood(g);

    AllocWindow window;
    double got = 0.0;
    for (int r = 0; r < 200; ++r) got = lik.logLikelihood(g);
    const std::size_t allocs = window.stop();
    EXPECT_EQ(allocs, 0u);
    EXPECT_DOUBLE_EQ(got, ref);
}

TEST(ZeroAllocTest, SerialRegionEvaluationSteadyStateAllocatesNothing) {
    Mt19937 rng(149);
    const int n = 12;
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(truth, *gen, {400, 1.0}, rng);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    const Genealogy g = simulateCoalescent(n, 1.0, rng);
    PartialsBuffer arena;
    lik.engine().evaluate(g, arena);

    // GMH proposals from several regions, built (and the thread-local
    // scratch warmed) outside the window.
    std::vector<Genealogy> members;
    std::vector<std::array<NodeId, 2>> changed;
    for (int r = 0; r < 8; ++r) {
        const NeighborhoodRegion region = makeNeighborhoodRegion(g, 1.0, rng);
        members.push_back(proposeInNeighborhood(region, rng));
        changed.push_back({region.target, region.parent});
    }
    std::vector<double> ref(members.size()), got(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
        ref[i] = lik.engine().evaluateRegion(members[i], changed[i], arena);

    AllocWindow window;
    for (int r = 0; r < 50; ++r)
        for (std::size_t i = 0; i < members.size(); ++i)
            got[i] = lik.engine().evaluateRegion(members[i], changed[i], arena);
    const std::size_t allocs = window.stop();
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(got, ref);
}

TEST(ZeroAllocTest, PooledLikelihoodSteadyStateIsAllocationBounded) {
    // With a real pool the block lambdas run on workers whose thread-local
    // scratch warms on first touch, and work-stealing makes the set of
    // (worker, engine) pairs that get touched nondeterministic — so the
    // pooled assertion is a hard bound (far fewer allocations than
    // evaluations) rather than exact zero.
    Mt19937 rng(131);
    const int n = 12;
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment data = simulateSequences(truth, *gen, {400, 1.0}, rng);
    const auto model = makeHky85(2.0, data.baseFrequencies());
    const DataLikelihood lik(data, *model);
    const Genealogy g = simulateCoalescent(n, 1.0, rng);

    ThreadPool pool(4);
    const double ref = lik.logLikelihood(g);
    for (int r = 0; r < 20; ++r) lik.logLikelihood(g, &pool);

    AllocWindow window;
    const int evals = 500;
    double got = 0.0;
    for (int r = 0; r < evals; ++r) got = lik.logLikelihood(g, &pool);
    const std::size_t allocs = window.stop();
    EXPECT_LT(allocs, static_cast<std::size_t>(evals) / 10);
    EXPECT_DOUBLE_EQ(got, ref);  // pooled result bitwise equals serial
}

// --- SMC propagation steady state --------------------------------------
//
// A particle filter generation must reuse its storage: partials live in
// pass-static arena slots, the per-generation scratch is persistent, and
// resampling copies through pre-sized buffers (smc/particle_cloud.h).
// Warm a few events, then count over the rest.

namespace {

DataLikelihood makeSmcLik(Alignment& store) {
    Mt19937 rng(211);
    const int n = 16;
    const Genealogy truth = simulateCoalescent(n, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    store = simulateSequences(truth, *gen, {300, 1.0}, rng);
    static const F81Model model(kUniformFreqs);
    return DataLikelihood(store, model);
}

}  // namespace

TEST(ZeroAllocTest, SmcPropagationSteadyStateAllocatesNothing) {
    Alignment data;
    const DataLikelihood lik = makeSmcLik(data);

    SmcOptions opts;
    opts.particles = 64;
    opts.essThreshold = 0.0;  // isolate propagation: never resample
    SlotArena arena(lik);
    SmcFilter filter(arena, 1.0, opts, 7);
    for (int e = 0; e < 3; ++e) filter.step();

    // The slot pool is sized once for the pass and every combine item
    // works in stack chunks: nothing grows.
    AllocWindow window;
    int steps = 0;
    while (!filter.done()) {
        filter.step();
        ++steps;
    }
    const std::size_t allocs = window.stop();
    ASSERT_GT(steps, 5);
    EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, SmcResampleSteadyStateAllocatesNothing) {
    Alignment data;
    const DataLikelihood lik = makeSmcLik(data);

    SmcOptions opts;
    opts.particles = 64;
    opts.essThreshold = 1.0;  // systematic resample after every event
    SlotArena arena(lik);
    SmcFilter filter(arena, 1.0, opts, 7);
    // Warm-up covers the first resample (the ancestry buffer grows to its
    // pass-wide size there; both particle arrays are pre-sized).
    for (int e = 0; e < 3; ++e) filter.step();

    AllocWindow window;
    while (!filter.done()) filter.step();
    const std::size_t allocs = window.stop();
    EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, SmcPooledPropagationSteadyStateIsAllocationBounded) {
    Alignment data;
    const DataLikelihood lik = makeSmcLik(data);

    SmcOptions opts;
    opts.particles = 128;
    opts.essThreshold = 0.5;
    ThreadPool pool(4);
    SlotArena arena(lik);
    SmcFilter filter(arena, 1.0, opts, 7, &pool);
    for (int e = 0; e < 3; ++e) filter.step();

    // Pooled bound mirrors PooledLikelihoodSteadyStateIsAllocationBounded:
    // worker-local warmup is nondeterministic under stealing, so assert a
    // hard bound rather than exact zero.
    AllocWindow window;
    int steps = 0;
    while (!filter.done()) {
        filter.step();
        ++steps;
    }
    const std::size_t allocs = window.stop();
    ASSERT_GT(steps, 5);
    EXPECT_LE(allocs, 4u * static_cast<std::size_t>(steps));
}

}  // namespace
}  // namespace mpcgs
