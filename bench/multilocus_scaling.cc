// Multi-locus scaling: samples/second of the joint-theta pipeline across a
// loci x threads sweep. The loci axis is embarrassingly parallel (each
// locus is one slot of the lockstep SamplerRun rounds, with its own chain
// set), so throughput should scale with min(loci, threads) while staying
// bitwise invariant to the thread count. Emits BENCH_multilocus.json (snapshot
// committed under bench/) next to BENCH_mcmc.json. Note: like the other
// thread sweeps, the committed snapshot comes from the single-core dev
// container, where every thread row measures the same serial work — the
// sweep shows real scaling only on multi-core hardware. With L > 1 the
// loci axis claims the pool and each locus's sampler launches run inline
// on its worker, so single-locus strategy parallelism (GMH fan-out) is
// traded for locus-level parallelism; at L >= threads that trade is
// strictly better.
//
//   $ ./multilocus_scaling [--samples N] [--seqs n] [--length L] [--paper-scale]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "bench/workload.h"
#include "rng/splitmix.h"
#include "seq/dataset.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct Row {
    std::size_t loci;
    unsigned threads;
    std::size_t samples;
    double seconds;
    double samplesPerSec;
    double speedupVs1T;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);
    const Options cli = Options::parse(argc, argv);
    const int nSeq = static_cast<int>(cli.getInt("seqs", 8));
    const std::size_t length = static_cast<std::size_t>(cli.getInt("length", 200));
    const std::size_t samplesPerLocus =
        static_cast<std::size_t>(cli.getInt("samples", cfg.paperScale ? 8000 : 1500));

    printHeader("multi-locus scaling (samples/sec per loci x threads)");
    const std::size_t maxLoci = 8;
    Dataset all;
    for (std::size_t l = 0; l < maxLoci; ++l)
        all.add(Locus{"locus" + std::to_string(l),
                      makeDataset(nSeq, length, 1.0, static_cast<unsigned>(
                                                         splitMix64At(29, l) & 0x7FFFFFFFu)),
                      1.0});
    std::printf("%d sequences x %zu bp per locus, %zu samples per locus, one EM iteration\n\n",
                nSeq, length, samplesPerLocus);

    std::vector<Row> rows;
    Table table({"loci", "threads", "time (s)", "samples/sec", "speedup"});
    for (const std::size_t loci : {1u, 2u, 4u, 8u}) {
        Dataset subset;
        for (std::size_t l = 0; l < loci; ++l) subset.add(all.locus(l));

        double oneThreadSeconds = 0.0;
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            MpcgsOptions opts;
            opts.theta0 = 1.0;
            opts.emIterations = 1;
            opts.samplesPerIteration = samplesPerLocus;
            opts.seed = 23;
            opts.strategy = Strategy::Gmh;
            opts.gmhProposals = 32;
            opts.gmhSamplesPerSet = 32;

            ThreadPool pool(threads);
            const MpcgsResult res = estimateTheta(subset, opts, &pool);
            const std::size_t produced = res.history.front().samples;
            if (threads == 1) oneThreadSeconds = res.samplingSeconds;
            const double rate = static_cast<double>(produced) / res.samplingSeconds;
            const double speedup = oneThreadSeconds / res.samplingSeconds;
            rows.push_back({loci, threads, produced, res.samplingSeconds, rate, speedup});
            table.addRow({Table::integer(loci), Table::integer(threads),
                          Table::num(res.samplingSeconds, 3), Table::num(rate, 0),
                          Table::num(speedup, 2)});
        }
    }
    table.print(std::cout);

    warnIfDirtyProvenance("BENCH_multilocus.json");
    std::ofstream json("BENCH_multilocus.json");
    json << "{\n  \"benchmark\": \"multilocus_scaling\",\n";
    json << "  \"provenance\": " << buildProvenanceJson() << ",\n";
    json << "  \"config\": {\"sequences\": " << nSeq << ", \"length\": " << length
         << ", \"samples_per_locus\": " << samplesPerLocus
         << ", \"strategy\": \"gmh\"},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "    {\"loci\": " << r.loci << ", \"threads\": " << r.threads
             << ", \"samples\": " << r.samples << ", \"seconds\": " << r.seconds
             << ", \"samples_per_sec\": " << r.samplesPerSec
             << ", \"speedup_vs_1t\": " << r.speedupVs1T << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_multilocus.json (%zu rows)\n", rows.size());
    return 0;
}
