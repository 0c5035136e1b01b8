// CPU parallel-execution substrate: a persistent work-stealing runtime.
//
// Substitutes for the paper's CUDA device (§4.4): a fixed pool of worker
// threads over which all parallel phases of the sampler (proposal
// generation, per-site likelihood, particle propagation, posterior
// reduction) run, so the speedup experiments sweep thread count the way
// the paper sweeps GPU occupancy. Every launch is one parallelFor, reached
// directly, through forEachIndex (which also takes a null pool), or
// through the par/kernel.h shapes launchBlocked and launchChains.
//
// Scheduling model. A launch partitions [0, n) into chunks of `grain`
// indices; the chunk ids are dealt deterministically into one contiguous
// span per worker slot. Each worker pops chunks from the front of its own
// span and, when empty, steals chunks one at a time off the back of a
// victim's remaining span (range stealing — one CAS per pop/steal, no
// locks, no queues; a thief never writes its own span, so a stale scan
// from a drained launch can never clobber the next launch's deal).
// The chunk *partition* depends only on (n, grain); the *assignment* of
// chunks to threads is dynamic and never visible to the callable. A launch
// is therefore bitwise invariant to the thread count whenever its outputs
// are chunk-indexed: components that reduce (the likelihood engine, SMC
// propagation) write per-chunk results into chunk-indexed slots and fold
// them in fixed chunk order on the caller.
//
// Launch overhead. The pool keeps one persistent launch slot: submitting
// work writes a function pointer + context, deals the spans, and bumps an
// epoch counter — no per-launch allocation, no mutex/condvar construction,
// no std::function. parallelFor compiles the user callable into a
// per-chunk trampoline, so indices dispatch through one indirect call per
// *chunk*, not per index. Steady-state sampling performs zero heap
// allocation in this layer (asserted by tests/zero_alloc_test.cc).
//
// Idle policy: spin-then-park. Idle workers spin briefly on the epoch word
// (launches arrive back-to-back during sampling; futex latency would
// dominate small grids), then park on a condition variable. When the pool
// is wider than the hardware (oversubscription), workers skip the spin and
// park immediately, and launches wake at most hardwareThreads()-1 workers
// — surplus threads cost nothing, so an 8-thread pool on a 1-core host
// runs at 1-thread speed instead of degrading.
//
// Nested launches: a parallelFor issued from inside a launch of the same
// pool runs its loop serially inline on the issuing thread (detected via a
// thread-local; see insideLaunch()). Concurrent launches from distinct
// external threads serialize on an internal mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpcgs {

/// Number of hardware threads, at least 1.
unsigned hardwareThreads();

class ThreadPool {
  public:
    /// Create a pool with `nThreads` total workers *including* the calling
    /// thread: nThreads == 1 means fully serial (no worker threads spawned).
    explicit ThreadPool(unsigned nThreads = hardwareThreads());
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total parallel width (workers + caller).
    unsigned size() const { return width_; }

    /// True while the calling thread is executing work of one of this
    /// pool's launches (a worker slot or the participating caller). Used
    /// by the launch paths to run nested launches serially inline instead
    /// of corrupting the in-flight launch.
    bool insideLaunch() const;

    /// Parallel loop over [0, n): f(i) is invoked exactly once per index.
    /// Indices are handed out in chunks of `grain` (0 = auto); the calling
    /// thread participates. Exceptions from f propagate (the first one
    /// thrown wins; remaining chunks are skipped).
    template <class F>
    void parallelFor(std::size_t n, F&& f, std::size_t grain = 0) {
        if (n == 0) return;
        if (runsInline(n)) {
            for (std::size_t i = 0; i < n; ++i) f(i);
            return;
        }
        launch(n, grain, &chunkTrampoline<std::remove_reference_t<F>>,
               const_cast<void*>(static_cast<const void*>(&f)));
    }

  private:
    /// One chunk of a launch, dispatched through a single indirect call:
    /// (context, beginIndex, endIndex).
    using ChunkFn = void (*)(void*, std::size_t, std::size_t);

    template <class F>
    static void chunkTrampoline(void* ctx, std::size_t begin, std::size_t end) {
        F& f = *static_cast<F*>(ctx);
        for (std::size_t i = begin; i < end; ++i) f(i);
    }

    /// Per-slot steal span: chunk ids [begin, end) packed into one 64-bit
    /// word (begin in the high half) so pop/steal are single CAS ops. Own
    /// cache line — the spans are the contended hot words of a launch.
    struct alignas(64) StealSpan {
        std::atomic<std::uint64_t> range{0};
        char pad_[64 - sizeof(std::atomic<std::uint64_t>)];
    };

    bool runsInline(std::size_t n) const {
        return workers_.empty() || n == 1 || insideLaunch();
    }

    void launch(std::size_t n, std::size_t grain, ChunkFn fn, void* ctx);
    void workerLoop(unsigned slot);
    void runChunks(unsigned slot);
    void executeChunk(std::size_t chunk);
    bool popOwn(unsigned slot, std::size_t& chunk);
    bool stealChunk(unsigned slot, std::size_t& chunk);
    void finishChunk();

    unsigned width_ = 1;
    unsigned wakeCap_ = 0;      ///< max workers woken per launch (hw-aware)
    bool oversubscribed_ = false;
    std::vector<std::thread> workers_;

    // --- persistent launch slot (reused by every launch; no allocation) ---
    std::mutex launchMu_;  ///< serializes external submitters
    ChunkFn fn_ = nullptr;
    void* ctx_ = nullptr;
    std::size_t n_ = 0;
    std::size_t grain_ = 1;
    std::atomic<std::size_t> chunksLeft_{0};
    std::atomic<bool> abort_{false};
    std::exception_ptr error_;  ///< first exception wins, guarded by errMu_
    std::mutex errMu_;
    std::vector<StealSpan> spans_;  ///< width_ entries

    // --- publication + idle/wake machinery ---
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> stop_{false};
    std::mutex wakeMu_;
    std::condition_variable wakeCv_;
    std::atomic<int> parked_{0};
    std::atomic<bool> callerParked_{false};
    std::mutex doneMu_;
    std::condition_variable doneCv_;
};

/// Run f(i) over [0,n) on `pool`, or serially when pool is nullptr.
template <class F>
void forEachIndex(ThreadPool* pool, std::size_t n, F&& f, std::size_t grain = 0) {
    if (pool)
        pool->parallelFor(n, f, grain);
    else
        for (std::size_t i = 0; i < n; ++i) f(i);
}

}  // namespace mpcgs
