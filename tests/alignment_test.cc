#include "seq/alignment.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace mpcgs {
namespace {

Alignment makeAln() {
    return Alignment({Sequence::fromString("s1", "AACGT"),
                      Sequence::fromString("s2", "AACGA"),
                      Sequence::fromString("s3", "AACTT")});
}

TEST(AlignmentTest, BasicAccessors) {
    const Alignment a = makeAln();
    EXPECT_EQ(a.sequenceCount(), 3u);
    EXPECT_EQ(a.length(), 5u);
    EXPECT_EQ(a.sequence(1).name(), "s2");
    const auto names = a.names();
    EXPECT_EQ(names[2], "s3");
}

TEST(AlignmentTest, ColumnExtraction) {
    const Alignment a = makeAln();
    const auto col = a.column(3);
    EXPECT_EQ(col[0], kNucG);
    EXPECT_EQ(col[1], kNucG);
    EXPECT_EQ(col[2], kNucT);
}

TEST(AlignmentTest, RejectsUnequalLengths) {
    EXPECT_THROW(Alignment({Sequence::fromString("a", "ACGT"),
                            Sequence::fromString("b", "ACG")}),
                 ParseError);
}

TEST(AlignmentTest, BaseFrequenciesSumToOne) {
    const Alignment a = makeAln();
    const BaseFreqs pi = a.baseFrequencies();
    double sum = 0.0;
    for (const double p : pi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    // 7 A, 3 C, 2 G, 3 T out of 15 (with a small pseudo-count floor).
    EXPECT_NEAR(pi[kNucA], 7.0 / 15.0, 0.01);
    EXPECT_NEAR(pi[kNucC], 3.0 / 15.0, 0.01);
}

TEST(AlignmentTest, BaseFrequenciesNeverZero) {
    // No G at all; the floor keeps pi_G positive.
    const Alignment a({Sequence::fromString("s1", "AAAA"), Sequence::fromString("s2", "CCTT")});
    const BaseFreqs pi = a.baseFrequencies();
    EXPECT_GT(pi[kNucG], 0.0);
}

TEST(AlignmentTest, SegregatingSites) {
    const Alignment a = makeAln();
    // Columns: AAA, AAA, CCC, GGT, TAT -> 2 polymorphic.
    EXPECT_EQ(a.segregatingSites(), 2u);
}

TEST(AlignmentTest, SegregatingSitesIgnoresUnknowns) {
    const Alignment a({Sequence::fromString("s1", "AN"), Sequence::fromString("s2", "AC")});
    EXPECT_EQ(a.segregatingSites(), 0u);
}

}  // namespace
}  // namespace mpcgs
