#include "rng/mt19937.h"

#include <algorithm>

#include "rng/splitmix.h"

namespace mpcgs {

static_assert(Mt19937::kStateWords == 624 + 1);

void Mt19937::reseed(std::uint32_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < N; ++i) {
        // Knuth-style initialization from the 2002 reference code.
        state_[i] = 1812433253u * (state_[i - 1] ^ (state_[i - 1] >> 30)) +
                    static_cast<std::uint32_t>(i);
    }
    index_ = N;
}

Mt19937 Mt19937::fromSplitMix(std::uint64_t seed) {
    Mt19937 g{Unseeded{}};
    g.reseedSplitMix(seed);
    return g;
}

void Mt19937::reseedSplitMix(std::uint64_t seed) {
    static_assert(N % 2 == 0);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < N; i += 2) {
        const std::uint64_t z = splitMix64(s);
        state_[i] = static_cast<std::uint32_t>(z);
        state_[i + 1] = static_cast<std::uint32_t>(z >> 32);
    }
    // An all-zero state is a fixed point of the recurrence; SplitMix64
    // cannot realistically produce one, but the guard costs nothing.
    if (std::all_of(state_.begin(), state_.end(), [](std::uint32_t w) { return w == 0; }))
        state_[0] = 1u;
    index_ = N;
}

void Mt19937::saveState(std::uint32_t out[kStateWords]) const {
    std::copy(state_.begin(), state_.end(), out);
    out[N] = static_cast<std::uint32_t>(index_);
}

void Mt19937::loadState(const std::uint32_t in[kStateWords]) {
    std::copy(in, in + N, state_.begin());
    index_ = in[N];
}

void Mt19937::twist() {
    // The reference implementation's split loops: no modulo per word, and
    // each loop's reads sit far enough from its writes to vectorize.
    const auto mix = [](std::uint32_t upper, std::uint32_t lower, std::uint32_t far) {
        const std::uint32_t y = (upper & kUpperMask) | (lower & kLowerMask);
        return far ^ (y >> 1) ^ ((0u - (y & 1u)) & kMatrixA);
    };
    std::size_t i = 0;
    for (; i < N - M; ++i) state_[i] = mix(state_[i], state_[i + 1], state_[i + M]);
    for (; i < N - 1; ++i) state_[i] = mix(state_[i], state_[i + 1], state_[i + M - N]);
    state_[N - 1] = mix(state_[N - 1], state_[0], state_[M - 1]);
    index_ = 0;
}

std::uint32_t Mt19937::nextU32() {
    if (index_ >= N) twist();
    std::uint32_t y = state_[index_++];
    // Tempering transform.
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

}  // namespace mpcgs
