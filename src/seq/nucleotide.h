// DNA alphabet. Codes 0..3 are the four nucleotides in the paper's order
// (A, C, G, T); code 4 represents an unknown/ambiguous site, whose tip
// likelihood is 1 for every nucleotide (standard Felsenstein handling).
#pragma once

#include <array>
#include <cstdint>

namespace mpcgs {

using NucCode = std::uint8_t;

inline constexpr NucCode kNucA = 0;
inline constexpr NucCode kNucC = 1;
inline constexpr NucCode kNucG = 2;
inline constexpr NucCode kNucT = 3;
inline constexpr NucCode kNucUnknown = 4;

inline constexpr int kNumNucs = 4;

/// Base frequencies pi indexed by NucCode (sums to 1).
using BaseFreqs = std::array<double, 4>;

inline constexpr BaseFreqs kUniformFreqs{0.25, 0.25, 0.25, 0.25};

/// Map an input character to a code. Accepts upper/lower case, U as T, and
/// the common unknown markers (N, X, ?, -, and IUPAC ambiguity codes all
/// collapse to kNucUnknown). Returns 0xFF for characters that are not
/// valid sequence content at all.
NucCode charToNuc(char c);

/// Canonical character for a code ('A','C','G','T','N').
char nucToChar(NucCode c);

}  // namespace mpcgs
