// FASTA reader/writer (convenience format alongside PHYLIP).
#pragma once

#include <iosfwd>
#include <string>

#include "seq/alignment.h"

namespace mpcgs {

Alignment readFasta(std::istream& in);
Alignment readFastaString(const std::string& text);
Alignment readFastaFile(const std::string& path);

void writeFasta(std::ostream& out, const Alignment& aln, std::size_t lineWidth = 70);

}  // namespace mpcgs
