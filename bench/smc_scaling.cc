// SMC particle-filter scaling: filter-pass wall time and logZ across a
// particles x threads sweep. Each generation is one launch over
// fixed-size particle blocks (par/kernel.h launchBlocked with per-slot RNG
// streams), every particle drawing its event and running its slot-arena
// combine (lik/slot_arena.h), so throughput should scale with the thread
// count while logZ stays BITWISE identical — this harness asserts the
// bitwise thread invariance (exit 1 on any mismatch), then emits
// BENCH_smc.json (snapshot committed under bench/) with build provenance
// and per-row likelihood counters.
//
//   $ ./smc_scaling [--particles N] [--seqs n] [--length L] [--paper]
//                   [--require-scaling PCT] [--metrics 0|1]
//
// Each cell repeats the pass until it has run at least kMinPasses passes
// and kMinCellSeconds of wall time, and reports the median pass time with
// its min and max: a single 20-60 ms pass swung by 1.6x between runs on a
// 4-core host, which made a one-pass gate a coin flip.
//
// --require-scaling PCT exits 1 if the median throughput at
// min(8, hardwareThreads()) threads falls below PCT% of the 1-thread
// median for any particle count (the CI regression gate against nominal
// parallelism). Gating at the
// host's width keeps an oversubscribed 8-thread pool on a 4-core runner
// from failing a healthy build.
//
// --metrics (default 1) arms the metrics registry; the per-row likelihood
// counters come straight from it (obs::reset() between rows),
// not from any bench-private stats copy. Run with --metrics 0 to measure
// the armed-vs-unarmed overhead (contract: within 2% at 8 threads);
// unarmed rows report zero counters.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/provenance.h"
#include "bench/workload.h"
#include "lik/felsenstein.h"
#include "obs/metrics.h"
#include "smc/smc_sampler.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

constexpr std::size_t kMinPasses = 5;
constexpr double kMinCellSeconds = 0.2;

struct Row {
    std::size_t particles;
    unsigned threads;
    std::size_t passes;
    double seconds;     ///< median pass time
    double minSeconds;
    double maxSeconds;
    double particlesPerSec;  ///< at the median pass time
    double logZ;
    double speedupVs1T;
    std::uint64_t combineOps;         ///< lik.combine_ops over the pass
    std::uint64_t matricesRequested;  ///< naive 2-per-combine-per-category count
    std::uint64_t matricesComputed;   ///< matrices actually exponentiated
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const Options cli = Options::parse(argc, argv);
    if (cli.has("print-config")) {
        std::fputs(buildConfigSummary().c_str(), stdout);
        return 0;
    }
    const bool paper = cli.getBool("paper", false);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 10));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 300));
    const std::size_t maxParticles =
        static_cast<std::size_t>(cli.getInt("particles", paper ? 8192 : 2048));
    const long requireScaling = cli.getInt("require-scaling", 0);
    const bool metricsArmed = cli.getBool("metrics", true);
    if (metricsArmed) obs::arm();

    printHeader("SMC scaling (median filter pass per particles x threads cell)");
    const Alignment data = makeDataset(nSeq, length, 1.0, 31);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    const unsigned gateThreads = std::min(8u, hardwareThreads());
    std::vector<unsigned> threadCounts = {1u, 2u, 4u, 8u};
    if (std::find(threadCounts.begin(), threadCounts.end(), gateThreads) ==
        threadCounts.end()) {
        threadCounts.push_back(gateThreads);
        std::sort(threadCounts.begin(), threadCounts.end());
    }
    std::printf("%d sequences x %zu bp, theta = 1.0, systematic resampling; "
                ">= %zu passes and >= %.1f s per cell; %u hardware threads\n\n",
                nSeq, length, kMinPasses, kMinCellSeconds, hardwareThreads());

    bool bitwiseOk = true;
    std::vector<Row> rows;
    Table table({"particles", "threads", "passes", "median (s)", "min (s)", "max (s)",
                 "particles/sec", "logZ", "speedup"});
    for (std::size_t particles = 256; particles <= maxParticles; particles *= 4) {
        bool haveReference = false;
        double referenceLogZ = 0.0;  // logZ of the first (1-thread) pass
        SmcOptions opts;
        opts.particles = particles;
        double oneThreadSeconds = 0.0;
        for (const unsigned threads : threadCounts) {
            ThreadPool pool(threads);
            std::vector<double> times;
            double cellSeconds = 0.0;
            double logZ = 0.0;
            obs::MetricsSnapshot snap;
            while (times.size() < kMinPasses || cellSeconds < kMinCellSeconds) {
                obs::reset();  // row isolation: counters below are per-pass
                Timer timer;
                const SmcPassResult res = runSmcPass(lik, 1.0, opts, 47, &pool);
                times.push_back(timer.seconds());
                cellSeconds += times.back();
                snap = obs::snapshot();
                logZ = res.logZ;
                if (!haveReference) {
                    referenceLogZ = res.logZ;
                    haveReference = true;
                } else if (std::memcmp(&res.logZ, &referenceLogZ, sizeof(double))) {
                    std::fprintf(stderr,
                                 "BITWISE MISMATCH: %zu particles, %u threads: logZ %.17g "
                                 "vs reference %.17g\n",
                                 particles, threads, res.logZ, referenceLogZ);
                    bitwiseOk = false;
                }
            }
            const double seconds = median(times);
            const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
            if (threads == 1) oneThreadSeconds = seconds;
            const double rate = static_cast<double>(particles) / seconds;
            rows.push_back({particles, threads, times.size(), seconds, *lo, *hi, rate, logZ,
                            oneThreadSeconds / seconds,
                            snap.counter(obs::Counter::LikCombineOps),
                            snap.counter(obs::Counter::LikMatricesRequested),
                            snap.counter(obs::Counter::LikMatricesComputed)});
            table.addRow({Table::integer(particles), Table::integer(threads),
                          Table::integer(times.size()), Table::num(seconds, 4),
                          Table::num(*lo, 4), Table::num(*hi, 4), Table::num(rate, 0),
                          Table::num(logZ, 3), Table::num(oneThreadSeconds / seconds, 2)});
        }
    }
    table.print(std::cout);
    std::printf("\nlogZ bitwise thread invariance: %s\n", bitwiseOk ? "PASS" : "FAIL");

    warnIfDirtyProvenance("BENCH_smc.json");
    std::ofstream json("BENCH_smc.json");
    json << "{\n  \"benchmark\": \"smc_scaling\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences\": " << nSeq << ", \"length\": " << length
         << ", \"scheme\": \"systematic\", \"bitwise_thread_invariant\": "
         << (bitwiseOk ? "true" : "false") << ", \"metrics_armed\": "
         << (metricsArmed ? "true" : "false") << ", \"gate_threads\": " << gateThreads
         << "},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"particles\": " << r.particles << ", \"threads\": " << r.threads
             << ", \"passes\": " << r.passes << ", \"seconds\": " << r.seconds
             << ", \"seconds_min\": " << r.minSeconds
             << ", \"seconds_max\": " << r.maxSeconds << ", \"particles_per_sec\": "
             << r.particlesPerSec << ", \"logZ\": " << r.logZ
             << ", \"speedup_vs_1t\": " << r.speedupVs1T
             << ", \"combine_ops\": " << r.combineOps
             << ", \"matrices_requested\": " << r.matricesRequested
             << ", \"matrices_computed\": " << r.matricesComputed << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote BENCH_smc.json (%zu rows)\n", rows.size());

    bool scalingOk = true;
    if (requireScaling > 0 && gateThreads < 2)
        std::printf("scaling gate skipped: %u hardware thread\n", gateThreads);
    if (requireScaling > 0) {
        // Regression gate: for every particle count, the pool at the
        // host's width (capped at 8) must reach at least PCT% of the
        // 1-thread median rate.
        for (const Row& base : rows) {
            if (base.threads != 1) continue;
            const Row* widest = &base;
            for (const Row& r : rows)
                if (r.particles == base.particles && r.threads == gateThreads) widest = &r;
            if (widest == &base) continue;
            const double floor =
                base.particlesPerSec * static_cast<double>(requireScaling) / 100.0;
            const bool pass = widest->particlesPerSec >= floor;
            std::printf("scaling gate: %zu particles, %u-thread %.0f/s vs "
                        "1-thread %.0f/s (floor %.0f/s) %s\n",
                        base.particles, widest->threads, widest->particlesPerSec,
                        base.particlesPerSec, floor, pass ? "PASS" : "FAIL");
            scalingOk = scalingOk && pass;
        }
    }
    return (bitwiseOk && scalingOk) ? 0 : 1;
}
