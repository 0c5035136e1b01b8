#include "core/structured_sampler.h"

#include "mcmc/checkpoint.h"
#include "util/error.h"

namespace mpcgs {

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

}  // namespace mpcgs
