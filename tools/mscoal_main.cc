// mscoal — Kingman coalescent tree simulator (the `ms` substitute, §6.1).
//
//   mscoal <nTips> [--theta T] [--seed S] [--reps R]
//
// Prints one Newick tree per replicate, like `ms <n> <R> -T`.
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "coalescent/simulator.h"
#include "core/supervisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phylo/newick.h"
#include "rng/mt19937.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/options.h"

namespace {

/// Every flag mscoal reads. Any other flag exits 2 before anything runs.
constexpr const char* kFlags[] = {"metrics-out", "print-config", "reps",
                                  "seed",        "theta",        "trace-out"};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options opts = Options::parse(argc, argv);
    try {
        opts.requireKnown(kFlags);
        if (opts.has("print-config")) {
            std::fputs(buildConfigSummary().c_str(), stdout);
            return 0;
        }
        if (opts.positional().empty()) {
            std::fprintf(stderr,
                         "usage: %s <nTips> [--theta T] [--seed S] [--reps R]\n"
                         "       [--metrics-out FILE] [--trace-out FILE]\n",
                         argv[0]);
            return 2;
        }
        failpoint::configureFromEnv();
        // Shared observability surface (src/obs/): same flags, taxonomy and
        // obs.emit fault semantics as mpcgs, emitted on clean exit.
        const auto metricsOut = opts.get("metrics-out");
        const auto traceOut = opts.get("trace-out");
        std::unique_ptr<obs::TraceRecorder> traceRec;
        if (metricsOut || traceOut) obs::arm();
        if (traceOut) {
            traceRec = std::make_unique<obs::TraceRecorder>();
            obs::armTrace(traceRec.get());
        }
        const long long n = parseInt("<nTips>", opts.positional()[0]);
        if (n < 2 || n > std::numeric_limits<int>::max())
            throw ConfigError("<nTips> expects 2 to " +
                              std::to_string(std::numeric_limits<int>::max()) + " tips, got '" +
                              opts.positional()[0] + "'");
        const double theta = opts.getDouble("theta", 1.0);
        const std::size_t reps = opts.getCount("reps", 1);
        Mt19937 rng(static_cast<std::uint32_t>(opts.getInt("seed", 42)));
        {
            const obs::TraceSpan span("mscoal_simulate", "sim");
            for (std::size_t r = 0; r < reps; ++r) {
                const Genealogy g = simulateCoalescent(static_cast<int>(n), theta, rng);
                std::cout << toNewick(g) << "\n";
            }
        }
        if (traceRec) obs::armTrace(nullptr);
        if (metricsOut) obs::writeMetricsFile(*metricsOut);
        if (traceOut) traceRec->writeFile(*traceOut);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mscoal: %s\n", e.what());
        return exitCodeFor(e);
    }
}
