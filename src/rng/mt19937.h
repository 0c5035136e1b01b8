// MT19937 Mersenne Twister (Matsumoto & Nishimura 1998), implemented from
// the reference recurrence. This is the paper's host-side generator
// (§5.1.2); outputs are bit-exact with the reference implementation and
// with std::mt19937 (verified in tests/rng_test.cc).
#pragma once

#include <array>
#include <cstdint>

#include "rng/rng.h"

namespace mpcgs {

class Mt19937 final : public Rng {
  public:
    static constexpr std::uint32_t kDefaultSeed = 5489u;

    explicit Mt19937(std::uint32_t seed = kDefaultSeed) { reseed(seed); }

    /// A generator with an all-zero state, to be filled in place by
    /// reseedSplitMix() or loadState(). Skips reseed()'s 624 dependent
    /// multiplies, so an array of streams can be sized cheaply and then
    /// seeded in parallel.
    struct Unseeded {};
    explicit Mt19937(Unseeded) {}

    void reseed(std::uint32_t seed);

    /// A generator whose full 624-word state is filled from the SplitMix64
    /// sequence of a 64-bit seed — the per-chain stream derivation of the
    /// sampler runtime (no entropy is lost to a 32-bit fold, and distinct
    /// 64-bit seeds give decorrelated states).
    static Mt19937 fromSplitMix(std::uint64_t seed);

    /// Make this generator fromSplitMix(seed), in place.
    void reseedSplitMix(std::uint64_t seed);

    std::uint32_t nextU32() override;

    /// Serialized size: the 624 state words plus the cursor.
    static constexpr std::size_t kStateWords = 625;

    /// Copy the exact generator state out / back in (checkpointing). The
    /// layout is the 624 words followed by the cursor; restoring it resumes
    /// the output sequence bitwise.
    void saveState(std::uint32_t out[kStateWords]) const;
    void loadState(const std::uint32_t in[kStateWords]);

  private:
    static constexpr std::size_t N = 624;
    static constexpr std::size_t M = 397;
    static constexpr std::uint32_t kMatrixA = 0x9908b0dfu;
    static constexpr std::uint32_t kUpperMask = 0x80000000u;
    static constexpr std::uint32_t kLowerMask = 0x7fffffffu;

    void twist();

    std::array<std::uint32_t, N> state_{};
    std::size_t index_ = N;
};

}  // namespace mpcgs
