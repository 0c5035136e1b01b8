#include "util/build_info.h"

#include <sstream>

#include "par/thread_pool.h"

#ifndef MPCGS_BUILD_TYPE
#define MPCGS_BUILD_TYPE "unknown"
#endif
#ifndef MPCGS_GIT_DESCRIBE
#define MPCGS_GIT_DESCRIBE "unknown"
#endif

namespace mpcgs {

const char* buildType() { return MPCGS_BUILD_TYPE; }

const char* gitDescribe() { return MPCGS_GIT_DESCRIBE; }

int simdWidthDoubles() {
#if defined(__AVX512F__)
    return 8;
#elif defined(__AVX2__) || defined(__AVX__)
    return 4;
#elif defined(__SSE2__) || defined(__aarch64__) || defined(__ARM_NEON)
    return 2;
#else
    return 1;
#endif
}

std::string buildConfigSummary() {
    std::ostringstream os;
    os << "build type:      " << buildType() << '\n'
       << "SIMD width:      " << simdWidthDoubles() << " doubles/vector\n"
       << "git describe:    " << gitDescribe() << '\n'
       << "default threads: " << hardwareThreads() << '\n';
    return os.str();
}

}  // namespace mpcgs
