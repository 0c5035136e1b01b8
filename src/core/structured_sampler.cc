#include "core/structured_sampler.h"

#include "mcmc/checkpoint.h"
#include "rng/splitmix.h"
#include "util/error.h"

namespace mpcgs {
namespace {

/// Snapshot tag of the structured strategy ("STRC"): loading a structured
/// payload into any other sampler — or vice versa — fails loudly.
constexpr std::uint32_t kStructuredTag = 0x43525453u;

}  // namespace

void StructuredSummarySink::consume(const Genealogy&, const SampleTag&) {
    throw InvariantError("StructuredSummarySink: received an unlabelled sample");
}

std::size_t StructuredSummarySink::total() const {
    std::size_t n = 0;
    for (const auto& c : perChain_) n += c.size();
    return n;
}

std::vector<StructuredSummary> StructuredSummarySink::chainMajor() const {
    std::vector<StructuredSummary> out;
    out.reserve(total());
    for (const auto& c : perChain_) out.insert(out.end(), c.begin(), c.end());
    return out;
}

void StructuredSummarySink::save(CheckpointWriter& w) const {
    w.u32(static_cast<std::uint32_t>(demeCount_));
    w.u64(perChain_.size());
    for (const auto& c : perChain_) {
        w.u64(c.size());
        for (const StructuredSummary& s : c) {
            w.doubles(s.coal);
            w.doubles(s.W);
            w.doubles(s.mig);
            w.doubles(s.U);
        }
    }
}

void StructuredSummarySink::load(CheckpointReader& r) {
    demeCount_ = static_cast<int>(r.u32());
    if (demeCount_ < 1 || demeCount_ > 64)
        throw CheckpointError("corrupt snapshot: implausible deme count");
    const std::uint64_t chains = r.u64();
    if (chains > r.remaining() / sizeof(std::uint64_t))
        throw CheckpointError("corrupt snapshot: implausible chain count");
    perChain_.assign(chains, {});
    const auto Ku = static_cast<std::size_t>(demeCount_);
    for (auto& c : perChain_) {
        const std::uint64_t n = r.u64();
        // Each summary occupies 4 length words plus (3K + K^2) doubles.
        const std::uint64_t bytesEach =
            4 * sizeof(std::uint64_t) + (3 * Ku + Ku * Ku) * sizeof(double);
        if (n > r.remaining() / bytesEach)
            throw CheckpointError("corrupt snapshot: implausible summary count");
        c.resize(n);
        for (StructuredSummary& s : c) {
            s.coal = r.doubles();
            s.W = r.doubles();
            s.mig = r.doubles();
            s.U = r.doubles();
            if (s.coal.size() != Ku || s.W.size() != Ku || s.U.size() != Ku ||
                s.mig.size() != Ku * Ku)
                throw CheckpointError("corrupt snapshot: summary shape mismatch");
        }
    }
}

StructuredChainsSampler::StructuredChainsSampler(const DataLikelihood& lik,
                                                 const MigrationModel& model,
                                                 StructuredGenealogy init,
                                                 std::size_t chains, std::uint64_t seed,
                                                 double pathRefreshProb, ThreadPool* pool)
    : problem_(lik, model, pathRefreshProb), scheduler_(pool, chains) {
    require(chains >= 1, "StructuredChainsSampler: need at least one chain");
    init.validate(model.demeCount());
    chains_.reserve(chains);
    for (std::size_t c = 0; c < chains; ++c)
        chains_.emplace_back(problem_, init,
                             Mt19937::fromSplitMix(splitMix64At(seed, c + 1)), pool);
}

void StructuredChainsSampler::tick(SampleSink* sink) {
    scheduler_.stepChains([&](std::size_t c) {
        chains_[c].step();
        if (sink)
            sink->consume(chains_[c].current(),
                          SampleTag{static_cast<std::uint32_t>(c), sampleRounds_,
                                    chains_[c].currentLogPosterior()});
    });
    if (sink) ++sampleRounds_;
}

SamplerStats StructuredChainsSampler::stats() const {
    SamplerStats s;
    for (const auto& c : chains_) {
        s.steps += c.steps();
        s.accepted += c.acceptedCount();
    }
    return s;
}

void StructuredChainsSampler::save(CheckpointWriter& w) const {
    w.u32(kStructuredTag);
    w.u64(chains_.size());
    for (const auto& c : chains_) {
        writeStructuredGenealogy(w, c.current());
        w.f64(c.currentLogPosterior());
        w.u64(c.steps());
        w.u64(c.acceptedCount());
        writeRng(w, c.rng());
    }
    w.u64(sampleRounds_);
}

void StructuredChainsSampler::load(CheckpointReader& r) {
    if (r.u32() != kStructuredTag)
        throw CheckpointError("snapshot was written by a different strategy");
    if (r.u64() != chains_.size())
        throw CheckpointError("snapshot chain count does not match configuration");
    for (auto& c : chains_) {
        StructuredGenealogy g = readStructuredGenealogy(r, problem_.model().demeCount());
        const double logPost = r.f64();
        const std::size_t steps = r.u64();
        const std::size_t accepted = r.u64();
        c.restore(std::move(g), logPost, steps, accepted);
        readRng(r, c.rng());
    }
    sampleRounds_ = r.u64();
}

}  // namespace mpcgs
