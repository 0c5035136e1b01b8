// Golden GMH chain: a 12-tip x 300 bp F81 chain with N = M = 16 proposals
// per set runs 40 Algorithm-1 iterations, and every iteration's region
// target, chosen index (0..N-1 a proposal, N the generator) and the new
// generator's log-posterior bits are pinned to recorded values. How a
// proposal's likelihood is computed may change; the chain it drives may
// not. Targets and indices are exact in every build, the log-posteriors
// outside the recording build (golden_build.h) to 1e-12 relative.
//
// On a mismatch the test prints the chain's actual table in its own
// source form, so a deliberate, documented re-baseline is a paste.
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/genealogy_problem.h"
#include "lik/felsenstein.h"
#include "mcmc/gmh.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "golden_build.h"

namespace mpcgs {
namespace {

constexpr int kTips = 12;
constexpr std::size_t kProposals = 16;
constexpr std::size_t kIterations = 40;
constexpr double kTheta = 0.05;

struct GoldenStep {
    NodeId target;
    std::size_t index;
    std::uint64_t logPosterior;
};

// Recorded with chain seed 91 on the data and start of goldenChain().
//
// The log-posterior column was re-recorded once, when the engine's strips
// moved to exact power-of-two rescaling and the vectorized log: every
// target and index of the previous table still held exactly, and every
// log-posterior to 1e-12 relative.
const GoldenStep kGolden[kIterations] = {
    {15, 16, 0xc08c6452944f8d98},
    {16, 0, 0xc08c47f52af64863},
    {18, 7, 0xc08c48c4c846737b},
    {18, 16, 0xc08c48c4c846737b},
    {20, 16, 0xc08c48c4c846737b},
    {21, 2, 0xc08c3e82547188ec},
    {17, 16, 0xc08c3e82547188ec},
    {15, 6, 0xc08c4aeeea4752c1},
    {15, 4, 0xc08c2a53c4a1a4cd},
    {21, 5, 0xc08c2cff59c96eab},
    {19, 16, 0xc08c2cff59c96eab},
    {16, 6, 0xc08bbb913b327dce},
    {14, 8, 0xc08a25fdb9f8cbf1},
    {18, 12, 0xc08a074ebe5c67d5},
    {18, 5, 0xc08a0b63b3aa0369},
    {16, 4, 0xc08a0715736fd231},
    {13, 7, 0xc089c36051ae35ef},
    {13, 16, 0xc089c36051ae35ef},
    {14, 5, 0xc089b723316935de},
    {12, 3, 0xc0895b44ab4d6935},
    {17, 16, 0xc0895b44ab4d6935},
    {19, 16, 0xc0895b44ab4d6935},
    {14, 16, 0xc0895b44ab4d6935},
    {19, 16, 0xc0895b44ab4d6935},
    {21, 9, 0xc0893d6d1ee56769},
    {13, 2, 0xc08941ddb9e77e7c},
    {17, 16, 0xc08941ddb9e77e7c},
    {20, 16, 0xc08941ddb9e77e7c},
    {14, 3, 0xc08928d95df5ab9a},
    {21, 16, 0xc08928d95df5ab9a},
    {13, 8, 0xc0892ed8277ec884},
    {17, 16, 0xc0892ed8277ec884},
    {14, 14, 0xc0892a0144b0d1c2},
    {17, 1, 0xc08913f2b36978f4},
    {20, 16, 0xc08913f2b36978f4},
    {18, 16, 0xc08913f2b36978f4},
    {13, 13, 0xc089071d5d96a182},
    {16, 16, 0xc089071d5d96a182},
    {19, 16, 0xc089071d5d96a182},
    {17, 16, 0xc089071d5d96a182},
};

/// Forwards to GmhGenealogyProblem, region hook included, and remembers,
/// for the current set, the region target and every proposal in index
/// order (the serial sampler proposes in index order).
class RecordingProblem {
  public:
    using State = Genealogy;
    using Region = NeighborhoodRegion;
    using Arena = GmhGenealogyProblem::Arena;

    RecordingProblem(const DataLikelihood& lik, double theta) : inner_(lik, theta) {}

    double logPosterior(const State& g) const { return inner_.logPosterior(g); }
    void evaluateGenerator(const State& g, Arena& arena, ThreadPool* pool) const {
        inner_.evaluateGenerator(g, arena, pool);
    }
    void moveGenerator(const Region& r, const State& member, Arena& arena,
                       ThreadPool* pool) const {
        inner_.moveGenerator(r, member, arena, pool);
    }
    double logPosterior(const Region& r, const Arena& arena, const State& g) const {
        return inner_.logPosterior(r, arena, g);
    }
    Region makeRegion(const State& g, Rng& rng) const {
        Region r = inner_.makeRegion(g, rng);
        target = r.target;
        proposals.clear();
        return r;
    }
    State proposeInRegion(const Region& r, Rng& rng) const {
        proposals.push_back(inner_.proposeInRegion(r, rng));
        return proposals.back();
    }
    double logProposalDensity(const Region& r, const State& g) const {
        return inner_.logProposalDensity(r, g);
    }

    mutable NodeId target = kNoNode;
    mutable std::vector<Genealogy> proposals;

  private:
    GmhGenealogyProblem inner_;
};

struct NoSink {
    void operator()(const Genealogy&) const {}
};

struct ChainData {
    Alignment data;
    Genealogy start;
};

ChainData goldenChain() {
    Mt19937 rng(37);
    const Genealogy truth = simulateCoalescent(kTips, kTheta, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    Alignment data = simulateSequences(truth, *gen, {300, 1.0}, rng);
    Genealogy start = simulateCoalescent(kTips, kTheta, rng);
    start.setTipNames(data.names());
    return {std::move(data), std::move(start)};
}

std::string formatTable(const std::vector<GoldenStep>& steps) {
    std::string out;
    char buf[96];
    for (const GoldenStep& s : steps) {
        std::snprintf(buf, sizeof buf, "    {%d, %zu, 0x%016" PRIx64 "},\n", s.target, s.index,
                      s.logPosterior);
        out += buf;
    }
    return out;
}

TEST(GmhGoldenTest, ChainReproducesRecordedSteps) {
    const ChainData chain = goldenChain();
    const F81Model model(chain.data.baseFrequencies());
    const DataLikelihood lik(chain.data, model);
    const RecordingProblem problem(lik, kTheta);
    GmhOptions opts;
    opts.numProposals = kProposals;
    opts.samplesPerIteration = kProposals;
    opts.seed = 91;
    static_assert(RegionEvaluated<RecordingProblem>);
    GmhSampler<RecordingProblem> sampler(problem, opts);
    sampler.start(chain.start);

    std::vector<GoldenStep> actual;
    for (std::size_t it = 0; it < kIterations; ++it) {
        sampler.tick(static_cast<NoSink*>(nullptr));
        std::size_t index = kProposals;
        for (std::size_t i = 0; i < problem.proposals.size(); ++i)
            if (problem.proposals[i] == sampler.current()) {
                index = i;
                break;
            }
        actual.push_back(
            {problem.target, index, std::bit_cast<std::uint64_t>(sampler.currentLogPosterior())});
    }
    SCOPED_TRACE("actual table:\n" + formatTable(actual));

    for (std::size_t it = 0; it < kIterations; ++it) {
        SCOPED_TRACE("iteration " + std::to_string(it));
        const GoldenStep& want = kGolden[it];
        EXPECT_EQ(actual[it].target, want.target);
        EXPECT_EQ(actual[it].index, want.index);
        if (recordingBuild()) {
            EXPECT_EQ(actual[it].logPosterior, want.logPosterior);
        } else {
            const double w = std::bit_cast<double>(want.logPosterior);
            EXPECT_NEAR(std::bit_cast<double>(actual[it].logPosterior), w, 1e-12 * std::abs(w));
        }
    }
}

}  // namespace
}  // namespace mpcgs
