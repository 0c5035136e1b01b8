// Build provenance: compile-time facts every tool prints under
// --print-config. The bench harnesses stamp the same facts into their
// BENCH_*.json snapshots (bench/provenance.h), and the golden tests read
// them to recognize the build that recorded their tables.
#pragma once

#include <string>

namespace mpcgs {

/// CMAKE_BUILD_TYPE the library was compiled with ("Release", "Debug",
/// "unknown" outside CMake).
const char* buildType();

/// `git describe --always --dirty` captured at configure time
/// ("unknown" outside a git checkout).
const char* gitDescribe();

/// Widest SIMD register the compiler could target, in doubles per vector
/// (8 = AVX-512, 4 = AVX/AVX2, 2 = SSE2/NEON, 1 = scalar). The likelihood
/// kernels rely on auto-vectorization at exactly this width.
int simdWidthDoubles();

/// Human-readable multi-line summary: build type, SIMD width, git
/// describe, and the runtime thread default (hardwareThreads()).
std::string buildConfigSummary();

}  // namespace mpcgs
