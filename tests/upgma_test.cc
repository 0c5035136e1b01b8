#include "phylo/upgma.h"

#include <cmath>

#include <gtest/gtest.h>

#include "seq/distance.h"
#include "util/error.h"

namespace mpcgs {
namespace {

TEST(UpgmaTest, ClustersClosestPairFirst) {
    // d(0,1) = 2 is smallest; (0,1) merge at height 1, then 2 joins.
    const DistanceMatrix d{{0, 2, 8}, {2, 0, 8}, {8, 8, 0}};
    const Genealogy g = upgmaTree(d);
    EXPECT_EQ(g.tipCount(), 3);
    const NodeId p01 = g.node(0).parent;
    EXPECT_EQ(g.node(1).parent, p01);
    EXPECT_DOUBLE_EQ(g.node(p01).time, 1.0);
    EXPECT_DOUBLE_EQ(g.tmrca(), 4.0);
    EXPECT_NO_THROW(g.validate());
}

TEST(UpgmaTest, AverageLinkageWeighting) {
    // Classic example: after merging (0,1), distance to 2 is the average.
    const DistanceMatrix d{{0, 2, 5}, {2, 0, 9}, {5, 9, 0}};
    const Genealogy g = upgmaTree(d);
    // (0,1) at height 1; d((01),2) = (5+9)/2 = 7 -> root at 3.5.
    EXPECT_DOUBLE_EQ(g.tmrca(), 3.5);
}

TEST(UpgmaTest, FourTaxaKnownTopology) {
    const DistanceMatrix d{
        {0, 1, 6, 6}, {1, 0, 6, 6}, {6, 6, 0, 2}, {6, 6, 2, 0}};
    const Genealogy g = upgmaTree(d);
    EXPECT_EQ(g.node(0).parent, g.node(1).parent);
    EXPECT_EQ(g.node(2).parent, g.node(3).parent);
    EXPECT_DOUBLE_EQ(g.node(g.node(0).parent).time, 0.5);
    EXPECT_DOUBLE_EQ(g.node(g.node(2).parent).time, 1.0);
    EXPECT_DOUBLE_EQ(g.tmrca(), 3.0);
}

TEST(UpgmaTest, IdenticalSequencesGetStrictlyPositiveBranches) {
    const DistanceMatrix d{{0, 0, 4}, {0, 0, 4}, {4, 4, 0}};
    const Genealogy g = upgmaTree(d);
    EXPECT_NO_THROW(g.validate());  // validate demands strictly increasing times
    EXPECT_GT(g.node(g.node(0).parent).time, 0.0);
}

TEST(UpgmaTest, RejectsBadMatrices) {
    EXPECT_THROW(upgmaTree({{0.0}}), ConfigError);
    EXPECT_THROW(upgmaTree({{0, 1}, {1, 0}, {2, 2}}), ConfigError);
}

TEST(UpgmaTest, WorksFromSequenceDistances) {
    const Alignment aln({Sequence::fromString("a", "AAAAAAAA"),
                         Sequence::fromString("b", "AAAAAAAT"),
                         Sequence::fromString("c", "TTTTAAAA"),
                         Sequence::fromString("d", "TTTTTTTA")});
    const Genealogy g = upgmaTree(hammingMatrix(aln));
    EXPECT_EQ(g.tipCount(), 4);
    // a,b differ by 1 and should be siblings; c,d differ by 3 but both are
    // 4+ from a/b.
    EXPECT_EQ(g.node(0).parent, g.node(1).parent);
    EXPECT_NO_THROW(g.validate());
}

TEST(ScaleToExpectedHeightTest, SetsCoalescentHeight) {
    const DistanceMatrix d{{0, 2, 8}, {2, 0, 8}, {8, 8, 0}};
    Genealogy g = upgmaTree(d);
    scaleToExpectedHeight(g, 1.5);
    // E[TMRCA] = theta (1 - 1/n) = 1.5 * 2/3 = 1.0.
    EXPECT_NEAR(g.tmrca(), 1.0, 1e-12);
    EXPECT_THROW(scaleToExpectedHeight(g, 0.0), ConfigError);
}

TEST(DistanceTest, MatricesAreConsistent) {
    const Alignment aln({Sequence::fromString("a", "AAAA"),
                         Sequence::fromString("b", "AATT")});
    EXPECT_DOUBLE_EQ(hammingMatrix(aln)[0][1], 2.0);
    EXPECT_DOUBLE_EQ(hammingMatrix(aln)[1][0], hammingMatrix(aln)[0][1]);
    EXPECT_DOUBLE_EQ(hammingMatrix(aln)[0][0], 0.0);
}

}  // namespace
}  // namespace mpcgs
