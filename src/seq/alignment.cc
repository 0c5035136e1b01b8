#include "seq/alignment.h"

#include <unordered_set>

#include "util/error.h"

namespace mpcgs {

Alignment::Alignment(std::vector<Sequence> seqs) : seqs_(std::move(seqs)) {
    if (seqs_.empty()) return;
    const std::size_t len = seqs_[0].length();
    std::unordered_set<std::string> names;
    names.reserve(seqs_.size());
    for (const auto& s : seqs_) {
        if (s.length() != len) throw ParseError("alignment: sequences have unequal lengths");
        // Duplicate names break tip lookup, pop-map assignment and result
        // reporting; every input format funnels through here, so reject
        // once centrally.
        if (!names.insert(s.name()).second)
            throw ParseError("alignment: duplicate sequence name '" + s.name() + "'");
    }
}

std::vector<std::string> Alignment::names() const {
    std::vector<std::string> out;
    out.reserve(seqs_.size());
    for (const auto& s : seqs_) out.push_back(s.name());
    return out;
}

std::vector<NucCode> Alignment::column(std::size_t site) const {
    std::vector<NucCode> out;
    out.reserve(seqs_.size());
    for (const auto& s : seqs_) out.push_back(s.at(site));
    return out;
}

BaseFreqs Alignment::baseFrequencies() const {
    std::array<double, 4> counts{0, 0, 0, 0};
    double total = 0.0;
    for (const auto& s : seqs_) {
        for (const NucCode c : s.codes()) {
            if (c == kNucUnknown) continue;
            counts[c] += 1.0;
            total += 1.0;
        }
    }
    if (total == 0.0) return kUniformFreqs;
    // Floor zero counts so no frequency is exactly 0 (a zero pi makes the
    // likelihood of that base -inf everywhere).
    constexpr double kFloor = 1e-6;
    BaseFreqs pi{};
    double norm = 0.0;
    for (int i = 0; i < 4; ++i) {
        pi[static_cast<std::size_t>(i)] =
            (counts[static_cast<std::size_t>(i)] + kFloor * total) / (total * (1.0 + 4.0 * kFloor));
        norm += pi[static_cast<std::size_t>(i)];
    }
    for (auto& p : pi) p /= norm;
    return pi;
}

std::size_t Alignment::segregatingSites() const {
    std::size_t count = 0;
    const std::size_t len = length();
    for (std::size_t site = 0; site < len; ++site) {
        NucCode first = kNucUnknown;
        bool poly = false;
        for (const auto& s : seqs_) {
            const NucCode c = s.at(site);
            if (c == kNucUnknown) continue;
            if (first == kNucUnknown)
                first = c;
            else if (c != first) {
                poly = true;
                break;
            }
        }
        if (poly) ++count;
    }
    return count;
}

}  // namespace mpcgs
