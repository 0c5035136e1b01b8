#include "rng/philox.h"

namespace mpcgs {
namespace {

constexpr std::uint32_t kMul0 = 0xD2511F53u;
constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

inline void mulHiLo(std::uint32_t a, std::uint32_t b, std::uint32_t& hi, std::uint32_t& lo) {
    const std::uint64_t p = static_cast<std::uint64_t>(a) * b;
    hi = static_cast<std::uint32_t>(p >> 32);
    lo = static_cast<std::uint32_t>(p);
}

inline std::array<std::uint32_t, 4> round1(const std::array<std::uint32_t, 4>& c,
                                           const std::array<std::uint32_t, 2>& k) {
    std::uint32_t hi0, lo0, hi1, lo1;
    mulHiLo(kMul0, c[0], hi0, lo0);
    mulHiLo(kMul1, c[2], hi1, lo1);
    return {hi1 ^ c[1] ^ k[0], lo1, hi0 ^ c[3] ^ k[1], lo0};
}

}  // namespace

std::array<std::uint32_t, 4> philox4x32(const std::array<std::uint32_t, 4>& counter,
                                        const std::array<std::uint32_t, 2>& key) {
    std::array<std::uint32_t, 4> c = counter;
    std::array<std::uint32_t, 2> k = key;
    for (int r = 0; r < 10; ++r) {
        c = round1(c, k);
        if (r < 9) {
            k[0] += kWeyl0;
            k[1] += kWeyl1;
        }
    }
    return c;
}

Philox::Philox(std::uint64_t seed, std::uint64_t stream) : seed_(seed) {
    // Mix the stream id into both key words so distinct streams give keys
    // that differ in many bits (splitmix64-style finalizer).
    std::uint64_t z = stream + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    key_[0] = static_cast<std::uint32_t>(seed) ^ static_cast<std::uint32_t>(z);
    key_[1] = static_cast<std::uint32_t>(seed >> 32) ^ static_cast<std::uint32_t>(z >> 32);
}

void Philox::refill() {
    buffer_ = philox4x32(counter_, key_);
    // 128-bit counter increment.
    for (std::size_t i = 0; i < 4; ++i) {
        if (++counter_[i] != 0) break;
    }
    bufPos_ = 0;
}

std::uint32_t Philox::nextU32() {
    if (bufPos_ >= 4) refill();
    return buffer_[bufPos_++];
}

}  // namespace mpcgs
