// Shared workload synthesis for the benchmark harnesses: the §6.1 data
// pipeline (coalescent tree -> F84 sequences) and the paired
// baseline-vs-GMH timing probe used by the speedup experiments.
#pragma once

#include <cstdio>
#include <string>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/options.h"

namespace mpcgs::bench {

/// Simulated data set for a given shape, mirroring
/// `ms <n> 1 -T | seq-gen -mF84 -l <L> -s <theta>`.
inline Alignment makeDataset(int nSeq, std::size_t length, double theta, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy truth = simulateCoalescent(nSeq, theta, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    return simulateSequences(truth, *gen, {length, 1.0}, rng);
}

/// One speedup measurement: wall time of the sampling phase (E-step) for
/// the serial MH baseline versus the GMH sampler on `threads` workers, both
/// producing the same number of genealogy samples. The baseline is the one
/// serial MH chain, which scores each proposal over a kept evaluation of
/// its current state (region evaluation), on one thread.
struct SpeedupPoint {
    double baselineSeconds = 0.0;
    double gmhSeconds = 0.0;
    double speedup() const { return baselineSeconds / gmhSeconds; }
};

inline SpeedupPoint measureSpeedup(const Alignment& data, std::size_t samples,
                                   unsigned threads, std::uint64_t seed = 11,
                                   std::size_t gmhProposals = 48) {
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 1;
    opts.samplesPerIteration = samples;
    opts.seed = seed;
    opts.gmhProposals = gmhProposals;
    opts.gmhSamplesPerSet = gmhProposals;  // Alg 1: M = N

    SpeedupPoint out;
    opts.strategy = Strategy::SerialMh;
    out.baselineSeconds = estimateTheta(data, opts).samplingSeconds;

    opts.strategy = Strategy::Gmh;
    ThreadPool pool(threads);
    out.gmhSeconds = estimateTheta(data, opts, &pool).samplingSeconds;
    return out;
}

/// Common CLI: benches accept --quick (default) or --paper to choose the
/// sweep scale, plus --threads.
struct BenchConfig {
    bool paperScale = false;
    unsigned threads = hardwareThreads();

    static BenchConfig fromArgs(int argc, const char* const* argv) {
        const Options o = Options::parse(argc, argv);
        BenchConfig c;
        c.paperScale = o.getBool("paper", false);
        c.threads = static_cast<unsigned>(o.getInt("threads", hardwareThreads()));
        return c;
    }
};

inline void printHeader(const std::string& title) {
    std::printf("=== %s ===\n", title.c_str());
}

}  // namespace mpcgs::bench
