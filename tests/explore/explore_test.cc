/**
 * @file
 * Design-space explorer tests: axis planning and storage-cost models,
 * Pareto dominance/knee marking on synthetic points, and the golden
 * determinism guarantees -- the scored table is identical at any job
 * count and across a mid-sweep resume.
 */

#include "explore/plan.hh"
#include "explore/runner.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/characterizer.hh"
#include "suite/arena_store.hh"
#include "suite/fanout.hh"
#include "util/atomic_file.hh"
#include "util/units.hh"

namespace spec17 {
namespace explore {
namespace {

using sim::SystemConfig;
using workloads::InputSize;
using workloads::SuiteGeneration;

TEST(Plan, AxisNamesRoundTrip)
{
    const std::vector<std::string> expected = {
        "predictor", "prefetcher", "l2-prefetcher", "way-predictor"};
    EXPECT_EQ(axisNames(), expected);
    for (const std::string &axis : axisNames())
        EXPECT_TRUE(isAxis(axis)) << axis;
    EXPECT_FALSE(isAxis("voltage"));
    EXPECT_FALSE(isAxis(""));
}

TEST(Plan, EachPointChangesExactlyItsOwnKnob)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    for (const std::string &axis : axisNames()) {
        const auto points = planAxis(axis, base);
        ASSERT_GE(points.size(), 3u) << axis;
        for (const auto &point : points) {
            EXPECT_EQ(point.axis, axis);
            EXPECT_GE(point.costBits, 0.0) << point.label;
        }
        // The axis always contains the baseline setting, and that
        // point's config is byte-for-byte the baseline config.
        bool found_base = false;
        for (const auto &point : points)
            found_base |= point.system.describe() == base.describe();
        EXPECT_TRUE(found_base) << axis;
    }
}

TEST(Plan, PointLabelsAreUniquePerAxis)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    for (const std::string &axis : axisNames()) {
        const auto points = planAxis(axis, base);
        for (std::size_t i = 0; i < points.size(); ++i)
            for (std::size_t j = i + 1; j < points.size(); ++j)
                EXPECT_NE(points[i].label, points[j].label) << axis;
    }
}

TEST(Plan, StorageCostModels)
{
    const sim::TageConfig tage;
    EXPECT_DOUBLE_EQ(predictorStorageBits("static-taken", tage), 0.0);
    EXPECT_DOUBLE_EQ(predictorStorageBits("bimodal", tage),
                     double(1u << 14) * 2.0);
    EXPECT_DOUBLE_EQ(predictorStorageBits("gshare", tage),
                     double(1u << 14) * 2.0 + 12.0);
    // TAGE default geometry: 4 tables x 2^10 entries x (9-bit tag +
    // 3-bit ctr + 2-bit useful + valid) + 2^12 x 2-bit base + 64-bit
    // history.
    EXPECT_DOUBLE_EQ(predictorStorageBits("tage", tage),
                     4.0 * 1024.0 * 15.0 + 4096.0 * 2.0 + 64.0);

    const sim::StreamConfig stream;
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("none", stream), 0.0);
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("next-line", stream), 58.0);
    // 8 streams x (two 58-bit line addresses + 3-bit LRU pointer +
    // 2-bit dir + 2-bit confidence + valid).
    EXPECT_DOUBLE_EQ(prefetcherStorageBits("stream", stream),
                     8.0 * (116.0 + 3.0 + 5.0));

    sim::CacheConfig l1d{"l1d", 32 * 1024, 8, 64,
                         sim::ReplacementPolicy::Lru, 4};
    // 64 sets: MRU keeps a 3-bit way pointer per set, utag an 8-bit
    // partial tag per way.
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::None, l1d), 0.0);
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::Mru, l1d),
        64.0 * 3.0);
    EXPECT_DOUBLE_EQ(
        wayPredictorStorageBits(sim::WayPredictor::Utag, l1d),
        64.0 * 8.0 * 8.0);
}

PointResult
syntheticPoint(const char *label, double sse, double cost)
{
    PointResult result;
    result.point.axis = "synthetic";
    result.point.label = label;
    result.point.costBits = cost;
    result.sse = sse;
    return result;
}

TEST(Plan, CrossProductIsRowMajorWithSummedCosts)
{
    const SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    const std::vector<std::string> axes = {"way-predictor",
                                           "predictor"};
    const auto way = planAxis("way-predictor", base);
    const auto pred = planAxis("predictor", base);
    const auto cross = planCross(axes, base);
    ASSERT_EQ(cross.size(), way.size() * pred.size());
    for (std::size_t i = 0; i < cross.size(); ++i) {
        const auto &outer = way[i / pred.size()];
        const auto &inner = pred[i % pred.size()];
        EXPECT_EQ(cross[i].axis, "way-predictor+predictor");
        // Row-major in the given axis order, labels joined with ','.
        EXPECT_EQ(cross[i].label, outer.label + "," + inner.label);
        EXPECT_DOUBLE_EQ(cross[i].costBits,
                         outer.costBits + inner.costBits)
            << cross[i].label;
        // Both knobs land on the combined config.
        EXPECT_EQ(cross[i].system.hierarchy.l1d.wayPredictor,
                  outer.system.hierarchy.l1d.wayPredictor);
        EXPECT_EQ(cross[i].system.branchPredictor,
                  inner.system.branchPredictor);
    }
}

TEST(Plan, GeometryAxesGateOnTheirMechanism)
{
    SystemConfig base = SystemConfig::haswellXeonE52650Lv3();
    ASSERT_NE(base.branchPredictor, "tage");
    EXPECT_FALSE(axisPlanError("tage-geometry", base).empty());
    EXPECT_FALSE(axisPlanError("stream-geometry", base).empty());
    // Mechanism axes always plan.
    for (const std::string &axis : axisNames())
        EXPECT_EQ(axisPlanError(axis, base), "") << axis;

    base.branchPredictor = "tage";
    EXPECT_EQ(axisPlanError("tage-geometry", base), "");
    base.hierarchy.l2Prefetcher = "stream";
    EXPECT_EQ(axisPlanError("stream-geometry", base), "");

    // The grids themselves: every point varies only its own geometry.
    const auto tables = planAnyAxis("tage-geometry", base);
    ASSERT_GE(tables.size(), 3u);
    for (const auto &point : tables) {
        EXPECT_EQ(point.system.branchPredictor, "tage");
        EXPECT_GT(point.costBits, 0.0) << point.label;
    }
    const auto streams = planAnyAxis("stream-geometry", base);
    for (const auto &point : streams) {
        EXPECT_LE(point.system.hierarchy.streamDegree,
                  point.system.hierarchy.streamDistance)
            << point.label;
    }
}

TEST(Pareto, MarksDominatedPointsAndTheKnee)
{
    std::vector<PointResult> points = {
        syntheticPoint("cheap", 10.0, 0.0),
        syntheticPoint("balanced", 5.0, 100.0),
        syntheticPoint("wasteful", 7.0, 200.0), // dominated by balanced
        syntheticPoint("accurate", 4.0, 1000.0),
    };
    markPareto(points);
    EXPECT_FALSE(points[0].dominated);
    EXPECT_FALSE(points[1].dominated);
    EXPECT_TRUE(points[2].dominated);
    EXPECT_FALSE(points[3].dominated);
    // Exactly one knee, and never a dominated point.
    int knees = 0;
    for (const auto &point : points) {
        knees += point.knee;
        if (point.knee)
            EXPECT_FALSE(point.dominated) << point.point.label;
    }
    EXPECT_EQ(knees, 1);
}

TEST(Pareto, EqualPointsDominateNeither)
{
    std::vector<PointResult> points = {
        syntheticPoint("a", 5.0, 100.0),
        syntheticPoint("b", 5.0, 100.0),
    };
    markPareto(points);
    EXPECT_FALSE(points[0].dominated);
    EXPECT_FALSE(points[1].dominated);
}

/** Tiny-sweep options: cpu2006/test keeps the sweep fast. */
ExploreOptions
tinyOptions()
{
    ExploreOptions options;
    options.runner.sampleOps = 2000;
    options.runner.warmupOps = 500;
    options.generation = SuiteGeneration::Cpu2006;
    options.size = InputSize::Test;
    options.cachePath.clear(); // no journals unless a test opts in
    return options;
}

void
expectSameTable(const std::vector<PointResult> &a,
                const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point.label, b[i].point.label);
        // Bit-exact, not approximately equal: the Pareto table is a
        // deterministic artifact.
        EXPECT_EQ(a[i].sse, b[i].sse) << a[i].point.label;
        EXPECT_EQ(a[i].meanIpc, b[i].meanIpc) << a[i].point.label;
        EXPECT_EQ(a[i].pairs, b[i].pairs) << a[i].point.label;
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].point.label;
        EXPECT_EQ(a[i].dominated, b[i].dominated) << a[i].point.label;
        EXPECT_EQ(a[i].knee, b[i].knee) << a[i].point.label;
    }
}

TEST(ExploreGolden, TableIsIdenticalAtAnyJobCount)
{
    ExploreOptions serial = tinyOptions();
    serial.runner.jobs = 1;
    const auto baseline =
        ExploreRunner(serial).runAxis("way-predictor");
    ASSERT_EQ(baseline.size(), 3u);
    for (const auto &point : baseline)
        EXPECT_GT(point.pairs, 0u) << point.point.label;

    ExploreOptions parallel_opts = tinyOptions();
    parallel_opts.runner.jobs = 8;
    expectSameTable(baseline,
                    ExploreRunner(parallel_opts).runAxis("way-predictor"));
}

TEST(ExploreGolden, TableIsIdenticalAcrossMidSweepResume)
{
    const std::string base =
        std::string(::testing::TempDir()) + "/explore_resume";

    ExploreOptions plain = tinyOptions();
    const auto baseline = ExploreRunner(plain).runAxis("way-predictor");

    // Full journaled sweep, then forget one point's journal: the
    // resumed run replays two points from disk and re-runs the third.
    ExploreOptions journaled = tinyOptions();
    journaled.cachePath = base;
    journaled.runner.jobs = 4;
    ExploreRunner first(journaled);
    expectSameTable(baseline, first.runAxis("way-predictor"));

    const auto points =
        planAxis("way-predictor", journaled.runner.system);
    std::vector<std::string> journals;
    for (const auto &point : points)
        journals.push_back(first.pointCachePath(point)
                           + ".cpu2006.test.csv");
    ASSERT_EQ(std::remove(journals[1].c_str()), 0)
        << "expected a journal at " << journals[1];

    ExploreOptions resumed = tinyOptions();
    resumed.cachePath = base;
    resumed.resume = true;
    resumed.runner.jobs = 2;
    expectSameTable(baseline,
                    ExploreRunner(resumed).runAxis("way-predictor"));

    for (const std::string &journal : journals)
        std::remove(journal.c_str());
}

/** The first two lines (campaign header, column header) plus the
 *  first @p records records of @p journal. */
std::string
journalPrefix(const std::string &journal, std::size_t records)
{
    std::size_t end = 0;
    for (std::size_t line = 0; line < records + 2; ++line)
        end = journal.find('\n', end) + 1;
    return journal.substr(0, end);
}

TEST(ExploreGolden, StaggeredPrefixesResumeThroughOneSweep)
{
    // Three points interrupted at different depths -- no records, k
    // records, complete -- resume through one shared pass that starts
    // at the shallowest prefix and runs each pair only for the points
    // still missing it.
    const std::string base =
        std::string(::testing::TempDir()) + "/explore_staggered";
    ExploreOptions journaled = tinyOptions();
    journaled.cachePath = base;
    const ExploreRunner explorer(journaled);
    const auto baseline = explorer.runAxis("way-predictor");
    const auto points = planAxis("way-predictor", journaled.runner.system);
    ASSERT_EQ(points.size(), 3u);
    std::vector<std::string> journals, golden;
    for (const auto &point : points) {
        journals.push_back(explorer.pointCachePath(point)
                           + ".cpu2006.test.csv");
        std::string bytes;
        ASSERT_TRUE(readFile(journals.back(), bytes)) << journals.back();
        golden.push_back(bytes);
    }
    const std::size_t total = baseline.front().pairs
        + baseline.front().errored;
    const std::vector<std::size_t> prefix = {0, 11, total};

    struct Seen
    {
        std::size_t index, total;
        bool replayed;
    };
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        for (std::size_t p = 0; p < points.size(); ++p)
            ASSERT_TRUE(writeFileAtomic(
                journals[p], journalPrefix(golden[p], prefix[p])));

        suite::TraceArenaStore store(512 * kMiB);
        std::vector<std::vector<Seen>> seen(points.size());
        std::vector<suite::FanoutSession> sessions;
        for (std::size_t p = 0; p < points.size(); ++p) {
            suite::FanoutSession session;
            session.runner = journaled.runner;
            session.runner.system = points[p].system;
            session.runner.jobs = jobs;
            session.runner.arenaStore = &store;
            session.cachePath = explorer.pointCachePath(points[p]);
            session.observer = [&seen, p](const suite::PairResult &row,
                                          std::size_t index,
                                          std::size_t count) {
                seen[p].push_back({index, count, row.replayed});
            };
            sessions.push_back(std::move(session));
        }
        suite::CampaignOptions campaign;
        campaign.resume = true;
        const auto sweeps = suite::runFanoutSweep(
            sessions, workloads::suiteOf(journaled.generation),
            journaled.size, campaign);

        std::vector<PointResult> table;
        for (std::size_t p = 0; p < points.size(); ++p)
            table.push_back(
                ExploreRunner::scorePoint(points[p], sweeps[p]));
        markPareto(table);
        expectSameTable(baseline, table);

        for (std::size_t p = 0; p < points.size(); ++p) {
            std::string bytes;
            EXPECT_TRUE(readFile(journals[p], bytes)) << journals[p];
            EXPECT_EQ(bytes, golden[p]) << journals[p];
            // A complete journal is a hit: no observer calls. Every
            // other point sees each index once, in order, replayed
            // exactly within its journal prefix.
            const std::size_t calls = prefix[p] == total ? 0 : total;
            ASSERT_EQ(seen[p].size(), calls) << "point " << p;
            for (std::size_t i = 0; i < calls; ++i) {
                EXPECT_EQ(seen[p][i].index, i) << "point " << p;
                EXPECT_EQ(seen[p][i].total, total) << "point " << p;
                EXPECT_EQ(seen[p][i].replayed, i < prefix[p])
                    << "point " << p << " index " << i;
            }
        }
    }
    for (const std::string &journal : journals)
        std::remove(journal.c_str());
}

TEST(ExploreGolden, CrossTableIdenticalAcrossFanoutAndJobs)
{
    const std::vector<std::string> axes = {"way-predictor",
                                           "l2-prefetcher"};
    const auto points = planCross(axes, tinyOptions().runner.system);
    ASSERT_EQ(points.size(), 12u);
    const std::string dir = ::testing::TempDir();
    const auto journaled = [&](const std::string &name) {
        ExploreOptions options = tinyOptions();
        options.cachePath = dir + "/explore_cross_" + name;
        return options;
    };
    const auto journals_of = [&](const ExploreOptions &options) {
        std::vector<std::string> files;
        for (const ExplorePoint &point : points)
            files.push_back(ExploreRunner(options).pointCachePath(point)
                            + ".cpu2006.test.csv");
        return files;
    };

    // Oracle, independent of the fan-out engine: one characterization
    // session per point, journaling at the point's own path.
    const ExploreOptions oracle = journaled("oracle");
    std::vector<PointResult> baseline;
    for (std::size_t i = 0; i < points.size(); ++i) {
        core::CharacterizerOptions session;
        session.runner = oracle.runner;
        session.runner.system = points[i].system;
        session.cachePath = ExploreRunner(oracle).pointCachePath(points[i]);
        core::Characterizer characterizer(session);
        baseline.push_back(ExploreRunner::scorePoint(
            points[i],
            characterizer.results(oracle.generation, oracle.size)));
    }
    markPareto(baseline);
    std::vector<std::string> golden;
    for (const std::string &file : journals_of(oracle)) {
        std::string bytes;
        ASSERT_TRUE(readFile(file, bytes)) << file;
        golden.push_back(bytes);
        std::remove(file.c_str());
    }

    // Every route through the one engine scores the bit-identical
    // table and writes byte-identical per-point journals: the all-
    // fallback routes (no arena store; the per-op reference lane) and
    // the lockstep route at any job count. One capture per pair
    // feeding all 12 points is an execution strategy, never semantics.
    const auto expect_oracle = [&](const ExploreOptions &options) {
        expectSameTable(baseline, ExploreRunner(options).runCross(axes));
        const auto files = journals_of(options);
        for (std::size_t i = 0; i < files.size(); ++i) {
            std::string bytes;
            EXPECT_TRUE(readFile(files[i], bytes)) << files[i];
            EXPECT_EQ(bytes, golden[i]) << files[i];
            std::remove(files[i].c_str());
        }
    };
    {
        SCOPED_TRACE("no arena store");
        expect_oracle(journaled("no_store"));
    }
    {
        SCOPED_TRACE("reference lane");
        ExploreOptions reference = journaled("reference");
        reference.runner.unbatchedStepping = true;
        expect_oracle(reference);
    }
    for (const unsigned jobs : {1u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "jobs=" << jobs);
        suite::TraceArenaStore store(512 * kMiB);
        ExploreOptions fanout = journaled("fanout");
        fanout.runner.jobs = jobs;
        fanout.runner.arenaStore = &store;
        expect_oracle(fanout);
        // The lockstep pass ran with the store attached: it acquires
        // each pair's trace once for all points, so nothing is ever
        // re-acquired (a per-point fallback would hit 11 times per
        // pair).
        EXPECT_GT(store.stats().captures, 0u);
        EXPECT_EQ(store.stats().hits, 0u);
    }
}

TEST(ExploreGolden, DescentFoldsEachStagesKneeIntoTheBase)
{
    ExploreOptions options = tinyOptions();
    suite::TraceArenaStore store(512 * kMiB);
    options.runner.arenaStore = &store;
    const auto steps = ExploreRunner(options).runDescent(
        {"way-predictor", "l2-prefetcher"});
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0].axis, "way-predictor");
    EXPECT_EQ(steps[1].axis, "l2-prefetcher");
    for (const auto &step : steps) {
        ASSERT_LT(step.chosen, step.points.size());
        EXPECT_TRUE(step.points[step.chosen].knee);
    }
    // Stage 2 swept from stage 1's winner: every stage-2 point
    // carries the folded way-predictor pick.
    const auto picked = steps[0]
                            .points[steps[0].chosen]
                            .point.system.hierarchy.l1d.wayPredictor;
    for (const auto &point : steps[1].points) {
        EXPECT_EQ(point.point.system.hierarchy.l1d.wayPredictor,
                  picked)
            << point.point.label;
    }

    // A geometry axis whose mechanism the base disables is skipped,
    // not swept: the descent yields no stage for it.
    const auto skipped =
        ExploreRunner(options).runDescent({"tage-geometry"});
    EXPECT_TRUE(skipped.empty());
}

} // namespace
} // namespace explore
} // namespace spec17
