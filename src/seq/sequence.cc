#include "seq/sequence.h"

#include "util/error.h"

namespace mpcgs {

Sequence Sequence::fromString(std::string name, const std::string& chars) {
    std::vector<NucCode> codes;
    codes.reserve(chars.size());
    for (const char c : chars) {
        const NucCode n = charToNuc(c);
        if (n == 0xFF)
            throw ParseError(std::string("invalid sequence character '") + c + "' in " + name);
        codes.push_back(n);
    }
    return Sequence(std::move(name), std::move(codes));
}

std::string Sequence::toString() const {
    std::string out;
    out.reserve(codes_.size());
    for (const NucCode c : codes_) out += nucToChar(c);
    return out;
}

std::size_t Sequence::hammingDistance(const Sequence& other) const {
    require(length() == other.length(), "hammingDistance: length mismatch");
    std::size_t d = 0;
    for (std::size_t i = 0; i < codes_.size(); ++i) {
        const NucCode a = codes_[i];
        const NucCode b = other.codes_[i];
        if (a == kNucUnknown || b == kNucUnknown) continue;
        if (a != b) ++d;
    }
    return d;
}

}  // namespace mpcgs
