#include "seq/fasta.h"

#include <sstream>

#include <gtest/gtest.h>

#include "util/error.h"

namespace mpcgs {
namespace {

TEST(FastaTest, ParsesMultiRecord) {
    const std::string text =
        ">one description here\n"
        "ACGT\n"
        "ACGT\n"
        ">two\n"
        "TTTTTTTT\n";
    const Alignment a = readFastaString(text);
    EXPECT_EQ(a.sequenceCount(), 2u);
    EXPECT_EQ(a.sequence(0).name(), "one");
    EXPECT_EQ(a.sequence(0).toString(), "ACGTACGT");
    EXPECT_EQ(a.sequence(1).toString(), "TTTTTTTT");
}

TEST(FastaTest, HandlesCrLf) {
    const std::string text = ">x\r\nACGT\r\n>y\r\nTGCA\r\n";
    const Alignment a = readFastaString(text);
    EXPECT_EQ(a.sequence(0).toString(), "ACGT");
}

TEST(FastaTest, RoundTripWithWrapping) {
    const Alignment a({Sequence::fromString("long", std::string(150, 'A') + std::string(50, 'C')),
                       Sequence::fromString("short", std::string(200, 'G'))});
    std::ostringstream text;
    writeFasta(text, a, 60);
    const Alignment b = readFastaString(text.str());
    EXPECT_EQ(b.sequence(0).toString(), a.sequence(0).toString());
    EXPECT_EQ(b.sequence(1).toString(), a.sequence(1).toString());
}

TEST(FastaTest, RejectsDataBeforeHeader) {
    EXPECT_THROW(readFastaString("ACGT\n>x\nACGT\n"), ParseError);
}

TEST(FastaTest, RejectsEmptyInput) {
    EXPECT_THROW(readFastaString(""), ParseError);
}

TEST(FastaTest, RejectsEmptyName) {
    EXPECT_THROW(readFastaString(">\nACGT\n"), ParseError);
}

TEST(FastaTest, RejectsRaggedAlignment) {
    EXPECT_THROW(readFastaString(">a\nACGT\n>b\nAC\n"), ParseError);
}

}  // namespace
}  // namespace mpcgs
