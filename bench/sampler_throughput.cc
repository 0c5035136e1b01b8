// Sampler-runtime throughput: samples/second for every strategy across a
// thread sweep, all running through the unified SamplerRun path. Emits
// BENCH_mcmc.json (snapshot committed under bench/) so successive PRs can
// track the sampling-throughput trajectory next to BENCH_likelihood.json.
//
// Every row of a strategy's sweep runs the SAME workload (fixed ensemble
// size), so the thread column is a true scaling curve. The earlier
// revision coupled chains = threads for the ensemble strategies, which
// made the 8-thread row an 8x-larger job and read as a slowdown.
//
//   $ ./sampler_throughput [--samples N] [--seqs n] [--length L] [--paper-scale]
//                          [--require-scaling PCT]
//
// Each cell repeats the estimate until it has run at least kMinRuns runs
// and kMinCellSeconds of sampling time, and reports the median sampling
// time with its min and max, as smc_scaling does: one 9-105 ms run per
// cell made the gate a coin flip on a 4-core host.
//
// --require-scaling PCT exits 1 if any strategy's widest-pool median rate
// falls below PCT% of its 1-thread median rate (the CI regression gate
// against nominal parallelism).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "util/build_info.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

constexpr std::size_t kMinRuns = 5;
constexpr double kMinCellSeconds = 0.2;

struct Row {
    std::string strategy;
    unsigned threads;
    std::size_t samples;
    std::size_t runs;
    double seconds;  ///< median sampling time
    double minSeconds;
    double maxSeconds;
    double samplesPerSec;  ///< at the median sampling time
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);
    const Options cli = Options::parse(argc, argv);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 10));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 300));
    const std::size_t samples =
        static_cast<std::size_t>(cli.getInt("samples", cfg.paperScale ? 24000 : 4000));
    const long requireScaling = cli.getInt("require-scaling", 0);

    printHeader("sampler runtime throughput (samples/sec per strategy x threads)");
    const Alignment data = makeDataset(nSeq, length, 1.0, 17);
    std::printf("%d sequences x %zu bp, %zu samples per run, one EM iteration; each cell\n"
                "runs >= %zu times and >= %.1f s (median, min, max)\n\n",
                nSeq, length, samples, kMinRuns, kMinCellSeconds);

    const std::vector<std::pair<std::string, Strategy>> strategies{
        {"gmh", Strategy::Gmh},
        {"mh", Strategy::SerialMh},
        {"multichain", Strategy::MultiChain},
        {"heated", Strategy::HeatedMh},
    };

    std::vector<Row> rows;
    Table table({"strategy", "threads", "runs", "median (s)", "min (s)", "max (s)",
                 "samples/sec"});
    for (const auto& [name, strategy] : strategies) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            // The serial baseline gains nothing from extra workers; its
            // sweep is collapsed to the single-thread row.
            if ((strategy == Strategy::SerialMh) && threads > 1) continue;

            MpcgsOptions opts;
            opts.theta0 = 1.0;
            opts.emIterations = 1;
            opts.samplesPerIteration = samples;
            opts.seed = 23;
            opts.strategy = strategy;
            opts.gmhProposals = 32;
            opts.gmhSamplesPerSet = 32;
            // Fixed ensemble sizes independent of the pool width: the
            // multichain ensemble and the MC^3 ladder are part of the
            // workload, not of the execution resources.
            opts.chains = strategy == Strategy::HeatedMh ? 4 : 8;

            ThreadPool pool(threads);
            std::vector<double> times;
            double cellSeconds = 0.0;
            std::size_t produced = 0;
            while (times.size() < kMinRuns || cellSeconds < kMinCellSeconds) {
                const MpcgsResult res = estimateTheta(data, opts, &pool);
                produced = res.history.front().samples;
                times.push_back(res.samplingSeconds);
                cellSeconds += res.samplingSeconds;
            }
            const double seconds = median(times);
            const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
            const double rate = static_cast<double>(produced) / seconds;
            rows.push_back({name, threads, produced, times.size(), seconds, *lo, *hi, rate});
            table.addRow({name, Table::integer(threads), Table::integer(times.size()),
                          Table::num(seconds, 4), Table::num(*lo, 4), Table::num(*hi, 4),
                          Table::num(rate, 0)});
        }
    }
    table.print(std::cout);

    warnIfDirtyProvenance("BENCH_mcmc.json");
    std::ofstream json("BENCH_mcmc.json");
    json << "{\n  \"benchmark\": \"sampler_throughput\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences\": " << nSeq << ", \"length\": " << length
         << ", \"samples\": " << samples
         << ", \"chains\": {\"multichain\": 8, \"heated\": 4}},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"strategy\": \"" << r.strategy << "\", \"threads\": " << r.threads
             << ", \"samples\": " << r.samples << ", \"runs\": " << r.runs
             << ", \"seconds\": " << r.seconds << ", \"seconds_min\": " << r.minSeconds
             << ", \"seconds_max\": " << r.maxSeconds
             << ", \"samples_per_sec\": " << r.samplesPerSec << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_mcmc.json (%zu rows)\n", rows.size());

    if (requireScaling > 0) {
        // Regression gate: the widest pool must reach at least PCT% of the
        // 1-thread median rate for every multi-row strategy (slack absorbs
        // runner noise; anything below it means parallelism went nominal
        // again).
        std::map<std::string, double> rate1, rateMax;
        std::map<std::string, unsigned> widest;
        for (const Row& r : rows) {
            if (r.threads == 1) rate1[r.strategy] = r.samplesPerSec;
            if (r.threads >= widest[r.strategy]) {
                widest[r.strategy] = r.threads;
                rateMax[r.strategy] = r.samplesPerSec;
            }
        }
        bool ok = true;
        for (const auto& [name, r1] : rate1) {
            if (widest[name] == 1) continue;
            const double floor = r1 * static_cast<double>(requireScaling) / 100.0;
            const bool pass = rateMax[name] >= floor;
            std::printf("scaling gate: %-10s %u-thread %.0f/s vs 1-thread %.0f/s "
                        "(floor %.0f/s) %s\n",
                        name.c_str(), widest[name], rateMax[name], r1, floor,
                        pass ? "PASS" : "FAIL");
            ok = ok && pass;
        }
        if (!ok) return 1;
    }
    return 0;
}
