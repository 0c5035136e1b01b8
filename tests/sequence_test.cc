#include "seq/sequence.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace mpcgs {
namespace {

TEST(NucleotideTest, CharRoundTrip) {
    EXPECT_EQ(charToNuc('A'), kNucA);
    EXPECT_EQ(charToNuc('c'), kNucC);
    EXPECT_EQ(charToNuc('G'), kNucG);
    EXPECT_EQ(charToNuc('t'), kNucT);
    EXPECT_EQ(charToNuc('U'), kNucT);  // RNA alias
    EXPECT_EQ(charToNuc('N'), kNucUnknown);
    EXPECT_EQ(charToNuc('-'), kNucUnknown);
    EXPECT_EQ(charToNuc('?'), kNucUnknown);
    EXPECT_EQ(charToNuc('R'), kNucUnknown);  // IUPAC ambiguity
    EXPECT_EQ(charToNuc('Z'), 0xFF);
    EXPECT_EQ(charToNuc('1'), 0xFF);

    EXPECT_EQ(nucToChar(kNucA), 'A');
    EXPECT_EQ(nucToChar(kNucC), 'C');
    EXPECT_EQ(nucToChar(kNucG), 'G');
    EXPECT_EQ(nucToChar(kNucT), 'T');
    EXPECT_EQ(nucToChar(kNucUnknown), 'N');
}

TEST(SequenceTest, FromStringAndBack) {
    const auto s = Sequence::fromString("seq1", "ACGTNacgt");
    EXPECT_EQ(s.name(), "seq1");
    EXPECT_EQ(s.length(), 9u);
    EXPECT_EQ(s.toString(), "ACGTNACGT");
}

TEST(SequenceTest, RejectsInvalidCharacters) {
    EXPECT_THROW(Sequence::fromString("bad", "ACGZ"), ParseError);
}

TEST(SequenceTest, HammingDistanceSkipsUnknowns) {
    const auto a = Sequence::fromString("a", "ACGTA");
    const auto b = Sequence::fromString("b", "ACCTN");
    // Position 2 differs; position 4 is unknown in b and does not count.
    EXPECT_EQ(a.hammingDistance(b), 1u);
    EXPECT_EQ(b.hammingDistance(a), 1u);
    EXPECT_EQ(a.hammingDistance(a), 0u);
}

TEST(SequenceTest, HammingThrowsOnLengthMismatch) {
    const auto a = Sequence::fromString("a", "ACGT");
    const auto b = Sequence::fromString("b", "ACG");
    EXPECT_THROW(a.hammingDistance(b), InvariantError);
}

}  // namespace
}  // namespace mpcgs
