// Cache-line-aligned, grow-only storage for the likelihood kernels.
//
// The tiled partials arenas want 64-byte alignment (full AVX-512
// vectors, no cache-line splits) and must not be reallocated on the MCMC
// hot path: PartialsBuffer sizes them once per (genealogy shape, pattern
// count) and reuses them across every subsequent sampler step.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace mpcgs {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Grow-only array of doubles with 64-byte-aligned storage. `ensure` keeps
/// existing storage when the requested size fits the current capacity;
/// growing discards contents (callers overwrite anyway). Not copyable.
class AlignedDoubles {
  public:
    AlignedDoubles() = default;
    ~AlignedDoubles() { ::operator delete[](data_, std::align_val_t{kCacheLineBytes}); }

    AlignedDoubles(const AlignedDoubles&) = delete;
    AlignedDoubles& operator=(const AlignedDoubles&) = delete;
    AlignedDoubles(AlignedDoubles&& o) noexcept
        : data_(o.data_), size_(o.size_), capacity_(o.capacity_) {
        o.data_ = nullptr;
        o.size_ = o.capacity_ = 0;
    }
    AlignedDoubles& operator=(AlignedDoubles&& o) noexcept {
        if (this != &o) {
            ::operator delete[](data_, std::align_val_t{kCacheLineBytes});
            data_ = o.data_;
            size_ = o.size_;
            capacity_ = o.capacity_;
            o.data_ = nullptr;
            o.size_ = o.capacity_ = 0;
        }
        return *this;
    }

    /// Make at least `n` doubles available (contents unspecified on growth).
    void ensure(std::size_t n) {
        if (n > capacity_) {
            ::operator delete[](data_, std::align_val_t{kCacheLineBytes});
            data_ = static_cast<double*>(
                ::operator new[](n * sizeof(double), std::align_val_t{kCacheLineBytes}));
            capacity_ = n;
        }
        size_ = n;
    }

    double* data() { return data_; }
    const double* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    double* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/// Round `n` up to a multiple of `unit` (a power of two is typical; any
/// positive unit works).
inline constexpr std::size_t roundUpTo(std::size_t n, std::size_t unit) {
    return ((n + unit - 1) / unit) * unit;
}

}  // namespace mpcgs
