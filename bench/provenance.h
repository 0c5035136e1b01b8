// Build provenance for the BENCH_*.json snapshots the bench harnesses
// write, so committed numbers carry the configuration that produced them.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

#include "par/thread_pool.h"
#include "util/build_info.h"

namespace mpcgs {

/// The build facts as one JSON object, e.g.
/// {"build_type": "Release", "simd_doubles": 4, "git": "abc1234",
///  "default_threads": 8} — embedded under "provenance" in BENCH_*.json.
inline std::string buildProvenanceJson() {
    std::ostringstream os;
    os << "{\"build_type\": \"" << buildType() << "\", \"simd_doubles\": "
       << simdWidthDoubles() << ", \"git\": \"" << gitDescribe()
       << "\", \"default_threads\": " << hardwareThreads() << "}";
    return os.str();
}

/// Print a loud stderr warning when the configure-time git describe is
/// "-dirty" (or unknown): a committed BENCH snapshot stamped from an
/// unclean tree can't be reproduced from any commit. Bench harnesses call
/// this right before writing `path`. Returns true when the warning fired.
inline bool warnIfDirtyProvenance(const char* path) {
    const std::string git = gitDescribe();
    const bool dirty =
        git == "unknown" ||
        (git.size() >= 6 && git.compare(git.size() - 6, 6, "-dirty") == 0);
    if (dirty)
        std::fprintf(stderr,
                     "WARNING: writing %s with provenance git=\"%s\" — this build "
                     "does not correspond to a commit; do NOT commit this snapshot "
                     "(rebuild from a clean checkout and rerun)\n",
                     path, git.c_str());
    return dirty;
}

}  // namespace mpcgs
