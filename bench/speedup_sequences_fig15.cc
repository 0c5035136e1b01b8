// Experiment E3 — Table 3 / Fig 15: speedup vs number of sequences. Paper
// sweep: n in {12, 24, 36, 48, 60, 84, 108, 132} at 200 bp; paper speedups
// {3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83}.
//
// Shape criterion: flat-to-slightly-declining speedup as n grows (larger
// trees mean more serial per-proposal overhead relative to the
// parallelizable per-site work).
//
//   --paper : full sweep to n = 132 with more samples (slow)
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/workload.h"
#include "core/genealogy_problem.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/mh.h"
#include "rng/splitmix.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace mpcgs;

/// MhGenealogyProblem without its region hook: every proposal pays a full
/// evaluation, the paper's GPU strategy applied to the serial chain.
class RecomputeMhProblem {
  public:
    using State = Genealogy;
    using Proposal = MhGenealogyProblem::Proposal;

    explicit RecomputeMhProblem(const MhGenealogyProblem& inner) : inner_(inner) {}

    double logPosterior(const State& g) const { return inner_.logPosterior(g); }
    Proposal propose(const State& g, Rng& rng) const { return inner_.propose(g, rng); }

  private:
    const MhGenealogyProblem& inner_;
};

/// Wall time of the serial MH E-step of `opts` (burn-in plus sampling) with
/// every proposal recomputed in full: the same chain as --strategy mh
/// runs, from the same start and stream.
double recomputeMhSeconds(const Alignment& data, const MpcgsOptions& opts) {
    const auto model = makeInferenceModel(opts.substModel, data);
    const DataLikelihood lik(data, *model, opts.compressPatterns);
    const MhGenealogyProblem inner(lik, opts.theta0);
    const RecomputeMhProblem problem(inner);
    MhChain<RecomputeMhProblem> chain(problem, initialGenealogy(data, opts.theta0),
                                      Mt19937::fromSplitMix(splitMix64At(opts.seed, 1)));
    const std::size_t burnIn =
        (opts.samplesPerIteration * opts.burnInFraction1000 + 999) / 1000;
    const Timer timer;
    chain.run(burnIn, opts.samplesPerIteration, [](const Genealogy&) {});
    return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs::bench;
    const BenchConfig cfg = BenchConfig::fromArgs(argc, argv);

    const std::vector<int> sweep = cfg.paperScale
                                       ? std::vector<int>{12, 24, 36, 48, 60, 84, 108, 132}
                                       : std::vector<int>{12, 24, 36, 48, 60};
    const std::vector<double> paperSpeedup{3.69, 3.41, 2.9, 2.78, 2.57, 2.43, 2.43, 2.83};
    const std::size_t samples = cfg.paperScale ? 20000 : 2500;

    printHeader("Table 3 / Fig 15: speedup vs number of sequences");
    std::printf("200 bp, %zu samples, %u threads\n", samples, cfg.threads);
    std::printf("(two baselines: MH recomputing every proposal in full, and the MH\n"
                " the repo runs, which scores each proposal over a kept evaluation of\n"
                " its current state, so its per-move cost grows sublinearly with n)\n\n");

    Table table({"# sequences", "recompute MH (s)", "MH (s)", "GMH (s)",
                 "speedup vs recompute", "speedup vs MH", "paper speedup"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Alignment data = makeDataset(sweep[i], 200, 1.0, 100 + static_cast<unsigned>(i));
        const SpeedupPoint p = measureSpeedup(data, samples, cfg.threads);

        MpcgsOptions opts;
        opts.theta0 = 1.0;
        opts.samplesPerIteration = samples;
        opts.seed = 11;
        const double recompute = recomputeMhSeconds(data, opts);

        table.addRow({Table::integer(sweep[i]), Table::num(recompute, 3),
                      Table::num(p.baselineSeconds, 3), Table::num(p.gmhSeconds, 3),
                      Table::num(recompute / p.gmhSeconds, 2), Table::num(p.speedup(), 2),
                      Table::num(paperSpeedup[i], 2)});
    }
    table.print(std::cout);
    std::printf("\nShape criterion (paper, Fig 15): speedup flat-to-declining with n.\n"
                "The paper's baseline recomputed every node per move; the MH column\n"
                "re-prunes only a move's region, whose cost grows with the tree's depth\n"
                "rather than its size, as a GMH proposal's region does (§5.2.2).\n");
    return 0;
}
