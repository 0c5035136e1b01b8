// Random number generation interface (§5.1.2 of Davis 2016).
//
// The paper uses two generators: MT19937 on the host (sampling the
// auxiliary target-node variable), and MTGP32 on the device with one
// independent stream per CUDA thread. This library mirrors that split:
// Mt19937 is the host generator, Philox4x32 provides counter-based
// per-thread streams whose outputs are independent of thread scheduling.
#pragma once

#include <cstdint>
#include <cmath>
#include <span>
#include <stdexcept>

namespace mpcgs {

/// Abstract uniform bit source with distribution helpers.
///
/// Derived classes supply raw 32-bit words; the helpers below implement the
/// distributions the sampler needs. Helpers are non-virtual so the sampling
/// logic is independent of the engine.
class Rng {
  public:
    virtual ~Rng() = default;

    /// Next uniformly distributed 32-bit word.
    virtual std::uint32_t nextU32() = 0;

    /// Next uniformly distributed 64-bit word.
    std::uint64_t nextU64() {
        const std::uint64_t hi = nextU32();
        const std::uint64_t lo = nextU32();
        return (hi << 32) | lo;
    }

    /// Uniform double in [0, 1) with 53 random bits.
    double uniform01() {
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in (0, 1] — safe as argument to log().
    double uniformPos() { return 1.0 - uniform01(); }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

    /// Uniform integer in [0, n). Unbiased (rejection); n must be > 0.
    std::uint64_t below(std::uint64_t n);

    /// Uniform integer in [lo, hi] inclusive.
    long long between(long long lo, long long hi) {
        return lo + static_cast<long long>(below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Exponential variate with the given rate (mean 1/rate).
    double exponential(double rate) {
        if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
        return -std::log(uniformPos()) / rate;
    }

    /// Standard normal via Box-Muller (no state caching; two uniforms/call).
    double normal() {
        const double u = uniformPos();
        const double v = uniform01();
        return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
    }

    double normal(double mu, double sigma) { return mu + sigma * normal(); }

    /// Sample an index from unnormalized non-negative linear weights.
    /// Throws if the weights sum to zero or the span is empty.
    std::size_t categorical(std::span<const double> weights);

    /// Sample an index from log-space weights (max-normalized internally,
    /// §5.2.3 underflow discipline).
    std::size_t categoricalFromLog(std::span<const double> logWeights);
};

}  // namespace mpcgs
