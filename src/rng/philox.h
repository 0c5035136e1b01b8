// Philox4x32-10 counter-based PRNG (Salmon et al., SC'11 / Random123).
//
// Stands in for the paper's MTGP32 device generator: each logical thread
// gets an independent stream keyed by (seed, stream id) with no shared
// state, so parallel proposal generation is reproducible regardless of
// thread scheduling. Verified against the Random123 known-answer vectors
// in tests/rng_test.cc.
#pragma once

#include <array>
#include <cstdint>

#include "rng/rng.h"

namespace mpcgs {

/// One Philox4x32-10 block: 4 output words from a 128-bit counter and a
/// 64-bit key. Pure function; exposed for testing.
std::array<std::uint32_t, 4> philox4x32(const std::array<std::uint32_t, 4>& counter,
                                        const std::array<std::uint32_t, 2>& key);

/// Streaming generator over consecutive counter blocks.
class Philox final : public Rng {
  public:
    /// Key layout: key[0] = low 32 bits of seed mixed with stream,
    /// key[1] = high 32 bits of seed. Distinct (seed, stream) pairs produce
    /// statistically independent sequences.
    explicit Philox(std::uint64_t seed, std::uint64_t stream = 0);

    std::uint32_t nextU32() override;

    /// A new generator on a different stream of the same seed (device-style
    /// per-thread stream derivation).
    Philox split(std::uint64_t stream) const { return Philox(seed_, stream); }

  private:
    void refill();

    std::uint64_t seed_;
    std::array<std::uint32_t, 2> key_{};
    std::array<std::uint32_t, 4> counter_{};
    std::array<std::uint32_t, 4> buffer_{};
    std::size_t bufPos_ = 4;  // force refill on first use
};

}  // namespace mpcgs
