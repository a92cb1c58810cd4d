/**
 * @file
 * Digest stability: the same results give the same digest, and
 * changing any one result field changes it.
 */

#include <gtest/gtest.h>

#include "digest.hh"

namespace spec17 {
namespace perfbench {
namespace {

using counters::PerfEvent;

std::vector<suite::PairResult>
samplePairs()
{
    std::vector<suite::PairResult> pairs(3);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        pairs[i].name = "pair" + std::to_string(i);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
            pairs[i].counters.set(static_cast<PerfEvent>(e),
                                  1000 * (i + 1) + e);
    }
    return pairs;
}

std::string
pairsDigest(const std::vector<suite::PairResult> &pairs)
{
    Digest digest;
    addPairs(digest, pairs);
    return digest.hex();
}

TEST(Digest, SameResultsGiveTheSameDigest)
{
    EXPECT_EQ(pairsDigest(samplePairs()), pairsDigest(samplePairs()));
    EXPECT_EQ(pairsDigest(samplePairs()).size(), 16u);
}

TEST(Digest, FlippingAnyOneCounterChangesIt)
{
    const std::string base = pairsDigest(samplePairs());
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        std::vector<suite::PairResult> pairs = samplePairs();
        const auto event = static_cast<PerfEvent>(e);
        pairs[1].counters.set(event, pairs[1].counters.get(event) ^ 1);
        EXPECT_NE(pairsDigest(pairs), base) << "event " << e;
    }
}

TEST(Digest, ErrorStateAndOrderCount)
{
    const std::string base = pairsDigest(samplePairs());
    std::vector<suite::PairResult> errored = samplePairs();
    errored[2].errored = true;
    EXPECT_NE(pairsDigest(errored), base);
    std::vector<suite::PairResult> swapped = samplePairs();
    std::swap(swapped[0], swapped[1]);
    EXPECT_NE(pairsDigest(swapped), base);
}

TEST(Digest, FieldBoundariesAreMarked)
{
    Digest ab_c, a_bc;
    ab_c.add(std::string_view("ab")).add(std::string_view("c"));
    a_bc.add(std::string_view("a")).add(std::string_view("bc"));
    EXPECT_NE(ab_c.hex(), a_bc.hex());
}

TEST(Digest, ParetoAndCorunFieldsCount)
{
    std::vector<explore::PointResult> points(2);
    points[0].sse = 1.5;
    points[1].knee = true;
    Digest base_points;
    addPoints(base_points, points);
    points[0].dominated = true;
    Digest flipped_points;
    addPoints(flipped_points, points);
    EXPECT_NE(base_points.hex(), flipped_points.hex());

    std::vector<corun::CorunResult> groups(1);
    groups[0].name = "a+b";
    groups[0].members.resize(2);
    groups[0].members[1].evictionsSuffered = 7;
    Digest base_groups;
    addGroups(base_groups, groups);
    groups[0].members[1].evictionsSuffered = 8;
    Digest flipped_groups;
    addGroups(flipped_groups, groups);
    EXPECT_NE(base_groups.hex(), flipped_groups.hex());
}

} // namespace
} // namespace perfbench
} // namespace spec17
