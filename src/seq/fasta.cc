#include "seq/fasta.h"

#include <fstream>
#include <sstream>

#include "util/error.h"

namespace mpcgs {

Alignment readFasta(std::istream& in) {
    std::vector<Sequence> seqs;
    std::string line, name, chars;
    auto flush = [&] {
        if (!name.empty()) {
            seqs.push_back(Sequence::fromString(name, chars));
            name.clear();
            chars.clear();
        }
    };
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (line[0] == '>') {
            flush();
            name = line.substr(1);
            // Use only the first token of the description as the name.
            const auto sp = name.find_first_of(" \t");
            if (sp != std::string::npos) name = name.substr(0, sp);
            if (name.empty()) throw ParseError("fasta: empty record name");
        } else {
            if (name.empty()) throw ParseError("fasta: sequence data before first header");
            chars += line;
        }
    }
    flush();
    if (seqs.empty()) throw ParseError("fasta: no records");
    return Alignment(std::move(seqs));
}

Alignment readFastaString(const std::string& text) {
    std::istringstream in(text);
    return readFasta(in);
}

Alignment readFastaFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw ParseError("fasta: cannot open '" + path + "'");
    return readFasta(in);
}

void writeFasta(std::ostream& out, const Alignment& aln, std::size_t lineWidth) {
    for (const auto& s : aln.sequences()) {
        out << '>' << s.name() << '\n';
        const std::string text = s.toString();
        for (std::size_t i = 0; i < text.size(); i += lineWidth)
            out << text.substr(i, lineWidth) << '\n';
    }
}

}  // namespace mpcgs
