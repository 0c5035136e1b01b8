// Launch shapes over the thread pool for the sampler's grid-structured work.
//
// The paper launches its device work over grids of blocks (§5.2). On the
// CPU every such launch is one ThreadPool::parallelFor with a grain of one
// block: launchBlocked splits an index range into fixed-size blocks (the
// likelihood engine's site-pattern blocks), launchChains runs one
// indivisible unit per chain (the sampler runtime's lockstep rounds), and
// blockReduceLogSumExp is the two-stage log-space reduction of the
// posterior kernel (§5.2.3): per-block partials, then a serial fold in
// block order. Block partitions depend only on the problem size and block
// size, never on the pool width, so their results are bitwise invariant to
// the thread count. A null pool runs every shape serially in order.
//
// The shapes are templates: the callable compiles into the pool's
// per-chunk trampoline, with no std::function construction or allocation
// on the hot path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "par/thread_pool.h"

namespace mpcgs {

/// Launch `f(blockIndex, begin, end)` over [0, n) partitioned into
/// contiguous blocks of `blockSize` indices (the last block may be short).
/// Blocks are distributed dynamically across the pool; a null pool runs
/// them in order on the calling thread. This is the grid geometry of the
/// data-likelihood kernel (§5.2.2) with site-pattern blocks as CUDA blocks:
/// each launch owns a contiguous, cache-resident slice of patterns, and the
/// partition depends only on (n, blockSize), so results that reduce
/// per-block are bitwise independent of thread count.
template <class F>
void launchBlocked(ThreadPool* pool, std::size_t n, std::size_t blockSize, F&& f) {
    if (n == 0) return;
    blockSize = std::max<std::size_t>(1, blockSize);
    const std::size_t blocks = (n + blockSize - 1) / blockSize;
    forEachIndex(
        pool, blocks,
        [&](std::size_t b) {
            const std::size_t lo = b * blockSize;
            f(b, lo, std::min(lo + blockSize, n));
        },
        /*grain=*/1);
}

/// Chain-affinity launch for the sampler runtime: run f(chain) once per
/// chain in [0, chains) with a grain of one, so each chain's step is a
/// single indivisible unit of pool work (a chain never splits across
/// workers mid-step, and per-chain RNG/state stays thread-private for the
/// duration). A null pool runs the chains in order on the calling thread.
template <class F>
void launchChains(ThreadPool* pool, std::size_t chains, F&& f) {
    forEachIndex(pool, chains, f, /*grain=*/1);
}

/// Two-stage log-space additive reduction (log-sum-exp per block, then a
/// cross-block log-sum-exp); the underflow-safe form used by the posterior
/// kernel (§5.2.3 + §5.3).
double blockReduceLogSumExp(ThreadPool* pool, std::span<const double> logValues,
                            std::size_t blockDim);

}  // namespace mpcgs
