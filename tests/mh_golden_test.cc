// Golden MH-family chains: serial MH, multi-chain, heated MC^3 and the
// structured sampler (path refresh on) each run a fixed number of ticks
// on a fixed small input, at 1 and at 4 threads. Every chain's final
// state, the bits of its log-posterior, and the strategy's step, accept
// and swap counts are pinned to recorded values. How a proposal's
// likelihood is computed may change; the chains it drives may not.
// Topologies and counts are exact in every build, the times and
// log-posteriors outside the recording build (golden_build.h) to 1e-12
// relative.
//
// On a mismatch the test prints the actual tables in their own source
// form, so a deliberate, documented re-baseline is a paste.
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/lockstep_chains.h"
#include "core/samplers.h"
#include "core/structured_sampler.h"
#include "lik/felsenstein.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "golden_build.h"

namespace mpcgs {
namespace {

/// One chain's final state. `topology` hashes everything but the times
/// (parents, children, root, and for a labelled genealogy its demes and
/// migration destinations); `state` hashes everything including the bits
/// of every time.
struct GoldenChain {
    const char* run;
    std::uint32_t chain;
    std::uint64_t topology;
    std::uint64_t state;
    std::uint64_t tmrca;
    std::uint64_t logPosterior;
};

struct GoldenCounts {
    const char* run;
    std::size_t steps;
    std::size_t accepted;
    std::size_t swapsProposed;
    std::size_t swapsAccepted;
};

// Recorded with the runs of goldenRuns() below. Heated chain 0's
// log-posterior was re-recorded when the likelihood strips became 8-pattern
// tiles: it moved by 1 ulp, and the previous table still passed in the
// tolerance mode with every topology, state, time and count exact.
const GoldenChain kGoldenChains[] = {
    {"mh", 0, 0x09dd9de43ed13bfe, 0xb045ed982883120e, 0x3fdb09b12d313a8e, 0xc0c17b2c2a1a387e},
    {"multichain", 0, 0xc680f5916932ab1e, 0x1b658f543c3bb36c, 0x3fd7926787c029e1, 0xc0c275311facf1d3},
    {"multichain", 1, 0x4ac69b760458aa3e, 0xd5f6d9da8903de2f, 0x3fdb422ce23a3410, 0xc0c20268a521125a},
    {"multichain", 2, 0x828fa6f904591e5e, 0x042de5e2927c7ca1, 0x3fd90b9360341dee, 0xc0c1b573588156de},
    {"heated", 0, 0x21d20e5f14a11e4e, 0x1a7bddf2e590a4e7, 0x3fd911905c72570f, 0xc0c272d5f9b85137},
    {"structured", 0, 0xe7cb4c8f214dd573, 0x8edaf02da523978c, 0x400cff616c71a28f, 0xc0bcd3d7c508efa1},
    {"structured", 1, 0xf970871e2d95e8b5, 0x7e5a583d33347e1d, 0x4011ccecfe24cfcd, 0xc0bcc9530882ec9f},
};

const GoldenCounts kGoldenCounts[] = {
    {"mh", 400, 30, 0, 0},
    {"multichain", 450, 73, 0, 0},
    {"heated", 480, 96, 12, 4},
    {"structured", 400, 100, 0, 0},
};

class Fnv {
  public:
    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (v >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void addTime(double t) { add(std::bit_cast<std::uint64_t>(t)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hashTree(const Genealogy& g, Fnv& topology, Fnv& state) {
    for (Fnv* h : {&topology, &state}) h->add(static_cast<std::uint64_t>(g.root()));
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        const TreeNode& nd = g.node(id);
        for (Fnv* h : {&topology, &state}) {
            h->add(static_cast<std::uint64_t>(nd.parent));
            h->add(static_cast<std::uint64_t>(nd.child[0]));
            h->add(static_cast<std::uint64_t>(nd.child[1]));
        }
        state.addTime(nd.time);
    }
}

/// Keeps the last sample of every chain.
class LastSampleSink final : public SampleSink {
  public:
    struct Last {
        std::uint64_t topology = 0;
        std::uint64_t state = 0;
        std::uint64_t tmrca = 0;
        std::uint64_t logPosterior = 0;
    };

    void beginRun(std::uint32_t chains) override { last_.resize(chains); }
    void consume(const Genealogy& g, const SampleTag& tag) override {
        Fnv topology, state;
        hashTree(g, topology, state);
        record(g, topology, state, tag);
    }
    void consume(const StructuredGenealogy& g, const SampleTag& tag) override {
        Fnv topology, state;
        hashTree(g.tree(), topology, state);
        for (NodeId id = 0; id < g.tree().nodeCount(); ++id) {
            for (Fnv* h : {&topology, &state}) {
                h->add(static_cast<std::uint64_t>(g.deme(id)));
                h->add(g.branchEvents(id).size());
            }
            for (const MigrationEvent& e : g.branchEvents(id)) {
                topology.add(static_cast<std::uint64_t>(e.toDeme));
                state.add(static_cast<std::uint64_t>(e.toDeme));
                state.addTime(e.time);
            }
        }
        record(g.tree(), topology, state, tag);
    }

    const std::vector<Last>& last() const { return last_; }

  private:
    void record(const Genealogy& g, const Fnv& topology, const Fnv& state, const SampleTag& tag) {
        last_[tag.chain] = Last{topology.value(), state.value(),
                                std::bit_cast<std::uint64_t>(g.tmrca()),
                                std::bit_cast<std::uint64_t>(tag.logPosterior)};
    }

    std::vector<Last> last_;
};

struct RunResult {
    std::vector<GoldenChain> chains;
    GoldenCounts counts;
};

RunResult runTicks(const char* name, Sampler& sampler, std::size_t ticks) {
    LastSampleSink sink;
    sink.beginRun(sampler.chainCount());
    for (std::size_t t = 0; t < ticks; ++t) sampler.tick(&sink);
    RunResult out;
    for (std::uint32_t c = 0; c < sink.last().size(); ++c) {
        const LastSampleSink::Last& l = sink.last()[c];
        out.chains.push_back({name, c, l.topology, l.state, l.tmrca, l.logPosterior});
    }
    const SamplerStats s = sampler.stats();
    out.counts = {name, s.steps, s.accepted, s.swapsProposed, s.swapsAccepted};
    return out;
}

/// The four golden runs on `pool`, in table order.
std::vector<RunResult> goldenRuns(ThreadPool* pool) {
    std::vector<RunResult> runs;
    {
        Mt19937 rng(61);
        const Genealogy truth = simulateCoalescent(10, 0.5, rng);
        const auto gen = makeF84(2.0, kUniformFreqs);
        const Alignment data = simulateSequences(truth, *gen, {1500, 1.0}, rng);
        Genealogy init = simulateCoalescent(10, 0.5, rng);
        init.setTipNames(data.names());
        const F81Model model(data.baseFrequencies());
        const DataLikelihood lik(data, model);

        SamplerSpec spec;
        spec.seed = 71;
        spec.chains = 3;
        spec.strategy = Strategy::SerialMh;
        runs.push_back(runTicks("mh", *makeSampler(spec, lik, 0.5, init, pool), 400));
        spec.strategy = Strategy::MultiChain;
        runs.push_back(runTicks("multichain", *makeSampler(spec, lik, 0.5, init, pool), 150));
        spec.strategy = Strategy::HeatedMh;
        runs.push_back(runTicks("heated", *makeSampler(spec, lik, 0.5, init, pool), 120));
    }
    {
        MigrationModel migration(2, 1.0, 1.0);
        migration.theta = {1.0, 1.5};
        migration.setRate(0, 1, 0.6);
        migration.setRate(1, 0, 0.8);
        const std::vector<int> demes{0, 0, 0, 0, 1, 1, 1, 1};
        Mt19937 rng(63);
        const StructuredGenealogy truth = simulateStructuredCoalescent(demes, migration, rng);
        const auto gen = makeF84(2.0, kUniformFreqs);
        const Alignment data = simulateSequences(truth.tree(), *gen, {1000, 1.0}, rng);
        const StructuredGenealogy init = simulateStructuredCoalescent(demes, migration, rng);
        const F81Model model(data.baseFrequencies());
        const DataLikelihood lik(data, model);
        LockstepChains<StructuredMhProblem> sampler(StructuredMhProblem(lik, migration, 0.25),
                                                    init, 2, 73, kStructuredSnapshotTag, pool);
        runs.push_back(runTicks("structured", sampler, 200));
    }
    return runs;
}

std::string formatTables(const std::vector<RunResult>& runs) {
    std::string out = "const GoldenChain kGoldenChains[] = {\n";
    char buf[160];
    for (const RunResult& r : runs)
        for (const GoldenChain& c : r.chains) {
            std::snprintf(buf, sizeof buf,
                          "    {\"%s\", %u, 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                          ", 0x%016" PRIx64 "},\n",
                          c.run, c.chain, c.topology, c.state, c.tmrca, c.logPosterior);
            out += buf;
        }
    out += "};\n\nconst GoldenCounts kGoldenCounts[] = {\n";
    for (const RunResult& r : runs) {
        std::snprintf(buf, sizeof buf, "    {\"%s\", %zu, %zu, %zu, %zu},\n", r.counts.run,
                      r.counts.steps, r.counts.accepted, r.counts.swapsProposed,
                      r.counts.swapsAccepted);
        out += buf;
    }
    return out + "};\n";
}

void expectNearBits(std::uint64_t actual, std::uint64_t want) {
    const double w = std::bit_cast<double>(want);
    EXPECT_NEAR(std::bit_cast<double>(actual), w, 1e-12 * std::abs(w));
}

TEST(MhGoldenTest, ChainsReproduceRecordedStatesAtOneAndFourThreads) {
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        const std::vector<RunResult> runs = goldenRuns(&pool);
        SCOPED_TRACE("actual tables:\n" + formatTables(runs));

        std::vector<GoldenChain> chains;
        std::vector<GoldenCounts> counts;
        for (const RunResult& r : runs) {
            chains.insert(chains.end(), r.chains.begin(), r.chains.end());
            counts.push_back(r.counts);
        }
        ASSERT_EQ(chains.size(), std::size(kGoldenChains));
        ASSERT_EQ(counts.size(), std::size(kGoldenCounts));
        for (std::size_t i = 0; i < chains.size(); ++i) {
            const GoldenChain& got = chains[i];
            const GoldenChain& want = kGoldenChains[i];
            SCOPED_TRACE(std::string(want.run) + " chain " + std::to_string(want.chain));
            EXPECT_EQ(std::string_view(got.run), std::string_view(want.run));
            EXPECT_EQ(got.chain, want.chain);
            EXPECT_EQ(got.topology, want.topology);
            if (recordingBuild()) {
                EXPECT_EQ(got.state, want.state);
                EXPECT_EQ(got.tmrca, want.tmrca);
                EXPECT_EQ(got.logPosterior, want.logPosterior);
            } else {
                expectNearBits(got.tmrca, want.tmrca);
                expectNearBits(got.logPosterior, want.logPosterior);
            }
        }
        for (std::size_t i = 0; i < counts.size(); ++i) {
            const GoldenCounts& got = counts[i];
            const GoldenCounts& want = kGoldenCounts[i];
            SCOPED_TRACE(want.run);
            EXPECT_EQ(std::string_view(got.run), std::string_view(want.run));
            EXPECT_EQ(got.steps, want.steps);
            EXPECT_EQ(got.accepted, want.accepted);
            EXPECT_EQ(got.swapsProposed, want.swapsProposed);
            EXPECT_EQ(got.swapsAccepted, want.swapsAccepted);
        }
    }
}

}  // namespace
}  // namespace mpcgs
