// Experiment E8 — micro-kernel benchmarks (google-benchmark): the costs of
// the sampler's building blocks, including the §5.2.2 ablation comparing
// full likelihood recomputation (the paper's GPU choice) against
// incremental dirty-path caching (the CPU alternative), and the
// scalar-vs-tiled-strip likelihood kernel comparison (patterns/sec via
// items_per_second).
//
// Unless --benchmark_out is given, results are also written to
// BENCH_likelihood.json so successive PRs can track the perf trajectory.
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "coalescent/death_process.h"
#include "coalescent/simulator.h"
#include "core/neighborhood.h"
#include "core/recoalesce.h"
#include "lik/felsenstein.h"
#include "lik/partials_buffer.h"
#include "lik/slot_arena.h"
#include "par/kernel.h"
#include "phylo/upgma.h"
#include "rng/mt19937.h"
#include "rng/philox.h"
#include "seq/distance.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "tests/reference_likelihood.h"
#include "util/logspace.h"

namespace {

using namespace mpcgs;

Alignment benchData(int n, std::size_t length, unsigned seed) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(n, 1.0, rng);
    const auto model = makeF84(2.0, kUniformFreqs);
    return simulateSequences(g, *model, {length, 1.0}, rng);
}

void BM_LogSumExp(benchmark::State& state) {
    std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
    Mt19937 rng(1);
    for (auto& x : xs) x = -500.0 + 100.0 * rng.uniform01();
    for (auto _ : state) benchmark::DoNotOptimize(logSumExp(xs));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogSumExp)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Mt19937(benchmark::State& state) {
    Mt19937 rng(2);
    for (auto _ : state) benchmark::DoNotOptimize(rng.nextU32());
}
BENCHMARK(BM_Mt19937);

void BM_Philox(benchmark::State& state) {
    Philox rng(3, 0);
    for (auto _ : state) benchmark::DoNotOptimize(rng.nextU32());
}
BENCHMARK(BM_Philox);

void BM_TransitionMatrixF81(benchmark::State& state) {
    const F81Model model(BaseFreqs{0.3, 0.2, 0.25, 0.25});
    double t = 0.01;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.transition(t));
        t += 1e-6;
    }
}
BENCHMARK(BM_TransitionMatrixF81);

void BM_TransitionMatrixGtr(benchmark::State& state) {
    const auto model = makeHky85(2.0, BaseFreqs{0.3, 0.2, 0.25, 0.25});
    double t = 0.01;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model->transition(t));
        t += 1e-6;
    }
}
BENCHMARK(BM_TransitionMatrixGtr);

void BM_BlockReduceLogSumExp(benchmark::State& state) {
    const unsigned threads = static_cast<unsigned>(state.range(0));
    ThreadPool pool(threads);
    std::vector<double> xs(65536);
    Mt19937 rng(4);
    for (auto& x : xs) x = -100.0 * rng.uniform01();
    for (auto _ : state)
        benchmark::DoNotOptimize(blockReduceLogSumExp(&pool, xs, 256));
    state.SetItemsProcessed(state.iterations() * static_cast<long>(xs.size()));
}
BENCHMARK(BM_BlockReduceLogSumExp)->Arg(1)->Arg(4)->Arg(16);

/// The data-likelihood kernel: full pruning recomputation per call, the
/// paper's GPU strategy (§5.2.2), across sequence lengths. Runs the
/// tiled-strip engine; items/sec is patterns/sec.
void BM_LikelihoodRecompute(benchmark::State& state) {
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(12, 1.0, rng);
    const Alignment data = benchData(12, static_cast<std::size_t>(state.range(0)), 5);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model, /*compress=*/false);
    for (auto _ : state) benchmark::DoNotOptimize(lik.logLikelihood(g));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LikelihoodRecompute)->Arg(200)->Arg(1000)->Arg(2000);

/// GMH proposals for the region benches: a 24-tip generator and one
/// proposal in the region of each of its non-root internal nodes, which
/// the benchmark loops cycle through.
struct RegionProposals {
    Genealogy generator;
    std::vector<Genealogy> members;
    std::vector<std::array<NodeId, 2>> changed;
};

RegionProposals regionProposals(unsigned seed) {
    Mt19937 rng(seed);
    RegionProposals out;
    out.generator = simulateCoalescent(24, 1.0, rng);
    for (NodeId t = out.generator.tipCount(); t < out.generator.nodeCount(); ++t) {
        if (t == out.generator.root()) continue;
        const NeighborhoodRegion region = makeNeighborhoodRegion(out.generator, t, 1.0);
        out.members.push_back(proposeInNeighborhood(region, rng));
        out.changed.push_back({region.target, region.parent});
    }
    return out;
}

/// One GMH proposal's likelihood over its generator's pre-evaluated arena:
/// only T, P and P's ancestors are re-pruned (24 tips, compressed
/// patterns, args = sites). Compare with BM_GmhProposalRecompute.
void BM_GmhRegionLikelihood(benchmark::State& state) {
    const Alignment data = benchData(24, static_cast<std::size_t>(state.range(0)), 19);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    const RegionProposals props = regionProposals(19);
    PartialsBuffer arena;
    lik.engine().evaluate(props.generator, arena);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lik.engine().evaluateRegion(props.members[i], props.changed[i], arena));
        i = (i + 1) % props.members.size();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GmhRegionLikelihood)->Arg(400)->Arg(2000);

/// The same proposals on the same data, each evaluated in full, which is
/// what every GMH proposal cost before the region evaluation.
void BM_GmhProposalRecompute(benchmark::State& state) {
    const Alignment data = benchData(24, static_cast<std::size_t>(state.range(0)), 19);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model);
    const RegionProposals props = regionProposals(19);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lik.logLikelihood(props.members[i]));
        i = (i + 1) % props.members.size();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GmhProposalRecompute)->Arg(400)->Arg(2000);

/// The seed's scalar one-pattern-at-a-time pruning, kept as the reference
/// path: the speedup of BM_LikelihoodRecompute over this is the
/// tiled-strip engine's win.
void BM_LikelihoodScalarReference(benchmark::State& state) {
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(12, 1.0, rng);
    const Alignment data = benchData(12, static_cast<std::size_t>(state.range(0)), 5);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model, /*compress=*/false);
    for (auto _ : state) benchmark::DoNotOptimize(referenceLogLikelihood(lik, g));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LikelihoodScalarReference)->Arg(200)->Arg(1000)->Arg(2000);

/// One SMC combine item (Eq. 19 + power-of-two rescale + root fold) over a
/// pre-filled slot arena, args {rate categories C, patterns P}: 10 tips
/// whose columns spell 0..P-1 in base 4, so P is exact. Children are two
/// internal slots with distinct branch lengths (2C matrices per item).
/// items/sec is patterns/sec.
void BM_SmcCombine(benchmark::State& state) {
    const std::size_t C = static_cast<std::size_t>(state.range(0));
    const std::size_t P = static_cast<std::size_t>(state.range(1));
    std::vector<Sequence> seqs;
    for (std::size_t s = 0; s < 10; ++s) {
        std::string chars;
        for (std::size_t j = 0; j < P; ++j) chars += "ACGT"[(j >> (2 * s)) & 3];
        seqs.push_back(Sequence::fromString("s" + std::to_string(s), chars));
    }
    const Alignment data(std::move(seqs));
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model,
                             C == 1 ? RateCategories::uniformRate()
                                    : RateCategories::discreteGamma(0.5, static_cast<int>(C)));
    SlotArena arena(lik);
    arena.resizeSlots(7);
    for (int t = 0; t < 4; ++t) arena.tipInit(t, t, nullptr);
    arena.combine(4, 0, 0.05, 1, 0.05, nullptr);
    arena.combine(5, 2, 0.08, 3, 0.08, nullptr);
    double rootLogL = 0.0;
    for (auto _ : state) {
        arena.combine(6, 4, 0.11, 5, 0.08, &rootLogL);
        benchmark::DoNotOptimize(rootLogL);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(P));
}
BENCHMARK(BM_SmcCombine)->ArgsProduct({{1, 4}, {255, 1607}});

/// Thread scaling of the blocked stateless evaluation (arg = pool width)
/// on the Fig 15 workload shape (48 sequences x 1000 sites, uncompressed).
void BM_LikelihoodThreadScaling(benchmark::State& state) {
    Mt19937 rng(15);
    const Genealogy g = simulateCoalescent(48, 1.0, rng);
    const Alignment data = benchData(48, 1000, 15);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model, /*compress=*/false);
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(lik.logLikelihood(g, &pool));
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LikelihoodThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Thread scaling of a full evaluation into a chain's arena (arg = pool
/// width), Fig 15 workload: every worker prunes the full postorder over
/// its own pattern slice of the persistent arena.
void BM_CachedEvaluateThreadScaling(benchmark::State& state) {
    Mt19937 rng(16);
    const Genealogy g = simulateCoalescent(48, 1.0, rng);
    const Alignment data = benchData(48, 1000, 16);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model, /*compress=*/false);
    PartialsBuffer arena;
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) benchmark::DoNotOptimize(lik.engine().evaluate(g, arena, &pool));
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CachedEvaluateThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Ablation: dirty-path update of an arena after a single-node change —
/// the incremental strategy the paper rejected for the GPU, and the move
/// every MH chain makes on an acceptance.
void BM_LikelihoodIncremental(benchmark::State& state) {
    Mt19937 rng(6);
    Genealogy g = simulateCoalescent(12, 1.0, rng);
    const Alignment data = benchData(12, static_cast<std::size_t>(state.range(0)), 6);
    const F81Model model(data.baseFrequencies());
    const DataLikelihood lik(data, model, /*compress=*/false);
    PartialsBuffer arena;
    lik.engine().evaluate(g, arena);
    const NodeId moved[] = {g.internalsByTime()[0]};
    for (auto _ : state) benchmark::DoNotOptimize(lik.engine().evaluateDirty(g, moved, arena));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LikelihoodIncremental)->Arg(200)->Arg(1000)->Arg(2000);

void BM_SitePatternCompression(benchmark::State& state) {
    const Alignment data = benchData(12, 2000, 7);
    for (auto _ : state) benchmark::DoNotOptimize(SitePatterns(data, true));
}
BENCHMARK(BM_SitePatternCompression);

/// The proposal kernel (§5.2.1): region construction + one resimulated
/// proposal + its exact density.
void BM_NeighborhoodProposal(benchmark::State& state) {
    Mt19937 rng(8);
    const Genealogy g = simulateCoalescent(static_cast<int>(state.range(0)), 1.0, rng);
    for (auto _ : state) {
        const NeighborhoodRegion region = makeNeighborhoodRegion(g, 1.0, rng);
        const Genealogy p = proposeInNeighborhood(region, rng);
        benchmark::DoNotOptimize(logNeighborhoodDensity(region, p));
    }
}
BENCHMARK(BM_NeighborhoodProposal)->Arg(12)->Arg(48)->Arg(132);

/// The baseline LAMARC move for comparison.
void BM_RecoalesceProposal(benchmark::State& state) {
    Mt19937 rng(9);
    Genealogy g = simulateCoalescent(static_cast<int>(state.range(0)), 1.0, rng);
    for (auto _ : state) {
        auto prop = proposeRecoalesce(g, 1.0, rng);
        benchmark::DoNotOptimize(prop.logForward);
        g = std::move(prop.state);
    }
}
BENCHMARK(BM_RecoalesceProposal)->Arg(12)->Arg(48)->Arg(132);

void BM_CoalescentSimulator(benchmark::State& state) {
    Mt19937 rng(10);
    for (auto _ : state)
        benchmark::DoNotOptimize(simulateCoalescent(static_cast<int>(state.range(0)), 1.0, rng));
}
BENCHMARK(BM_CoalescentSimulator)->Arg(12)->Arg(132);

void BM_Upgma(benchmark::State& state) {
    const Alignment data = benchData(static_cast<int>(state.range(0)), 200, 11);
    const auto dist = hammingMatrix(data);
    for (auto _ : state) benchmark::DoNotOptimize(upgmaTree(dist));
}
BENCHMARK(BM_Upgma)->Arg(12)->Arg(60);

void BM_DeathProcessSample(benchmark::State& state) {
    std::vector<FeasibleInterval> ivs{
        {0.0, 0.1, 3, 1}, {0.1, 0.25, 2, 1}, {0.25, 1.0, 1, 1}};
    const DeathProcess dp(std::move(ivs), 1.0);
    Mt19937 rng(12);
    for (auto _ : state) benchmark::DoNotOptimize(dp.sampleMergeTimes(rng));
}
BENCHMARK(BM_DeathProcessSample);

}  // namespace

// BENCHMARK_MAIN(), plus a default JSON artifact: when the caller didn't
// pick an output file, emit BENCH_likelihood.json in the working directory
// so the perf trajectory is tracked across PRs.
int main(int argc, char** argv) {
    std::vector<char*> args(argv, argv + argc);
    std::string outFlag = "--benchmark_out=BENCH_likelihood.json";
    std::string fmtFlag = "--benchmark_out_format=json";
    bool hasOut = false;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) hasOut = true;
    if (!hasOut) {
        args.push_back(outFlag.data());
        args.push_back(fmtFlag.data());
        mpcgs::warnIfDirtyProvenance("BENCH_likelihood.json");
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    // google-benchmark owns the JSON layout, so graft the provenance block
    // in after the fact: re-open the default artifact and splice
    // buildProvenanceJson() in right behind the opening brace, matching
    // the hand-rolled BENCH_* emitters.
    if (!hasOut) {
        std::ifstream in("BENCH_likelihood.json");
        if (in) {
            std::stringstream buf;
            buf << in.rdbuf();
            in.close();
            std::string doc = buf.str();
            const std::size_t brace = doc.find('{');
            if (brace != std::string::npos) {
                doc.insert(brace + 1,
                           "\n  \"provenance\": " + mpcgs::buildProvenanceJson() + ",");
                std::ofstream out("BENCH_likelihood.json");
                out << doc;
            }
        }
    }
    return 0;
}
