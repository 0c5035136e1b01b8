// Which build the golden tables of gmh_golden_test, mh_golden_test and
// smc_golden_test pin bitwise: the one that recorded them, GCC 12 Release
// with -march=native on an AVX-512 host (8-double SIMD), where GCC
// contracts a*b+c into fused multiply-adds. Builds that contract or
// instrument differently (no -march=native, Debug, clang, and the
// MPCGS_SANITIZE / MPCGS_TSAN builds, whose instrumentation moves the
// kernels' rounding by a few ULPs) hold the likelihood-derived values to
// 1e-12 relative instead; each test keeps its exact columns exact in every
// build.
#pragma once

#include <string_view>

#include "util/build_info.h"

namespace mpcgs {

inline bool recordingBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#elif defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
    return std::string_view(buildType()) == "Release" && simdWidthDoubles() == 8;
#else
    return false;
#endif
}

}  // namespace mpcgs
