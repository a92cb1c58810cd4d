/**
 * @file
 * Property sweep over the trace-arena replay space, driven through
 * the engine that replays: for random batch sizes crossed with random
 * arena byte budgets -- including budgets too small to retain any
 * arena (every pair served uncached) and budgets that force LRU
 * eviction churn mid-sweep -- a fan-out sweep whose design points
 * share one store must reproduce, row for row and journal byte for
 * journal byte, one live-generating core::Characterizer per point, at
 * jobs 1 and jobs 8. Budget and eviction behaviour are execution
 * strategy, never semantics (docs/determinism.md); this test is the
 * property-level enforcement of that claim.
 */

#include "suite/arena_store.hh"
#include "suite/fanout.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/characterizer.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;
using workloads::SuiteGeneration;

constexpr std::uint64_t kSampleOps = 30000;
constexpr std::uint64_t kWarmupOps = 8000;

/**
 * Four design points covering every construction the lockstep pass
 * makes: the baseline; a branch-side variant that imports the
 * baseline's memory lanes and is built on its L3; a hierarchy
 * variant that simulates its own memory side; and a core variant
 * that shares the baseline's hierarchy but not its lanes (the core
 * parameters bake into the recorded latency lanes), so it is a
 * leader of its own with a fresh, separately prefilled hierarchy.
 */
std::vector<sim::SystemConfig>
points()
{
    const sim::SystemConfig base =
        sim::SystemConfig::haswellXeonE52650Lv3();
    sim::SystemConfig bimodal = base;
    bimodal.branchPredictor = "bimodal";
    sim::SystemConfig next_line = base;
    next_line.hierarchy.l2Prefetcher = "next-line";
    sim::SystemConfig small_rob = base;
    small_rob.core.robSize = base.core.robSize / 2;
    return {base, bimodal, next_line, small_rob};
}

RunnerOptions
laneOptions(const sim::SystemConfig &system, unsigned jobs,
            std::uint64_t batch_ops, TraceArenaStore *store)
{
    RunnerOptions options;
    options.system = system;
    options.sampleOps = kSampleOps;
    options.warmupOps = kWarmupOps;
    options.jobs = jobs;
    options.batchOps = batch_ops;
    // No telemetry and no watchdog deadlines: either would make the
    // configuration ineligible for the lockstep pass, turning this
    // test into a trivial live-vs-live comparison.
    options.arenaStore = store;
    return options;
}

/** One journal base path per point under @p tag. */
std::string
pointBase(const std::string &tag, std::size_t point)
{
    return std::string(::testing::TempDir()) + "/spec17_arena_prop_"
        + tag + "_p" + std::to_string(point);
}

std::string
journalOf(const std::string &base)
{
    return base + ".cpu2006.test.csv";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The oracle: one live-generating characterization session per point
 * (no arena store), journaling under @p tag when it is non-empty.
 */
std::vector<std::vector<PairResult>>
liveResults(const std::string &tag)
{
    std::vector<std::vector<PairResult>> results;
    const auto systems = points();
    for (std::size_t p = 0; p < systems.size(); ++p) {
        core::CharacterizerOptions options;
        options.runner = laneOptions(systems[p], 1, 0, nullptr);
        options.cachePath = tag.empty() ? "" : pointBase(tag, p);
        if (!tag.empty())
            std::remove(journalOf(options.cachePath).c_str());
        core::Characterizer session(options);
        results.push_back(
            session.results(SuiteGeneration::Cpu2006, InputSize::Test));
    }
    return results;
}

/** A fan-out sweep of every point through @p store, journaling under
 *  @p tag when it is non-empty. */
std::vector<std::vector<PairResult>>
fanoutResults(unsigned jobs, std::uint64_t batch_ops,
              TraceArenaStore &store, const std::string &tag)
{
    std::vector<FanoutSession> sessions;
    const auto systems = points();
    for (std::size_t p = 0; p < systems.size(); ++p) {
        FanoutSession session;
        session.runner = laneOptions(systems[p], jobs, batch_ops, &store);
        session.cachePath = tag.empty() ? "" : pointBase(tag, p);
        if (!tag.empty())
            std::remove(journalOf(session.cachePath).c_str());
        sessions.push_back(std::move(session));
    }
    return runFanoutSweep(sessions, workloads::cpu2006Suite(),
                          InputSize::Test);
}

/**
 * Deterministic budget population: one pair's arena at this sample
 * size is ~1-2 MiB of lanes, and the cpu2006/test sweep holds a few
 * dozen pairs, so the population spans "nothing fits" (uncached
 * service), "a handful fit" (LRU churn), and "everything fits".
 */
std::vector<std::uint64_t>
budgetPopulation()
{
    std::vector<std::uint64_t> budgets = {
        1,          // smaller than any arena: all uncached
        2 * kMiB,   // roughly one arena resident at a time
        512 * kMiB, // everything resident
    };
    Rng rng(0xa7e4a);
    for (int draw = 0; draw < 2; ++draw)
        budgets.push_back(1 + rng.nextBounded(16 * kMiB));
    return budgets;
}

void
expectResultsIdentical(const std::vector<PairResult> &a,
                       const std::vector<PairResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].wallCycles, b[i].wallCycles) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << a[i].name;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(a[i].counters.get(event),
                      b[i].counters.get(event))
                << a[i].name << " " << perfEventName(event);
        }
    }
}

TEST(ArenaReplayProperty, RandomBudgetsAndBatchSizesMatchLiveGeneration)
{
    const auto golden = liveResults("");

    Rng rng(0xc0ffee);
    for (const std::uint64_t budget : budgetPopulation()) {
        const std::uint64_t batch = 1 + rng.nextBounded(4096);
        TraceArenaStore store(budget);
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "budget=" << budget << " batchOps=" << batch
                         << " jobs=" << jobs);
            const auto rows = fanoutResults(jobs, batch, store, "");
            ASSERT_EQ(rows.size(), golden.size());
            for (std::size_t p = 0; p < rows.size(); ++p) {
                SCOPED_TRACE(::testing::Message() << "point " << p);
                expectResultsIdentical(golden[p], rows[p]);
            }
        }
        // Both sweeps replayed through the store: every pair was
        // captured (first sweep) and the residency never outgrew the
        // budget, however much the sweep churned it.
        EXPECT_GT(store.stats().captures, 0u);
        EXPECT_LE(store.stats().residentBytes, budget);
    }
}

TEST(ArenaReplayProperty, JournalBytesMatchLiveGeneration)
{
    liveResults("ref");
    std::vector<std::string> golden;
    for (std::size_t p = 0; p < points().size(); ++p) {
        golden.push_back(fileBytes(journalOf(pointBase("ref", p))));
        ASSERT_FALSE(golden.back().empty()) << "point " << p;
    }

    // A journal-focused subset (journal content depends on results
    // only, pinned exhaustively above): one starved budget, one
    // everything-resident budget, reusing one store across job counts
    // so the jobs=8 sweep replays arenas the jobs=1 sweep captured.
    Rng rng(0x5411e);
    for (const std::uint64_t budget : {std::uint64_t(1), 512 * kMiB}) {
        TraceArenaStore store(budget);
        const std::uint64_t batch = 1 + rng.nextBounded(4096);
        for (const unsigned jobs : {1u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "budget=" << budget << " batchOps=" << batch
                         << " jobs=" << jobs);
            const std::string tag =
                "b" + std::to_string(budget) + "_j" + std::to_string(jobs);
            fanoutResults(jobs, batch, store, tag);
            for (std::size_t p = 0; p < golden.size(); ++p) {
                const std::string journal = journalOf(pointBase(tag, p));
                EXPECT_EQ(fileBytes(journal), golden[p]) << journal;
                std::remove(journal.c_str());
            }
        }
        // The full-budget store serves the second sweep from
        // residency: replay-of-a-replayed-capture is still identical.
        if (budget > kMiB) {
            EXPECT_GT(store.stats().hits, 0u);
        }
    }
    for (std::size_t p = 0; p < golden.size(); ++p)
        std::remove(journalOf(pointBase("ref", p)).c_str());
}

} // namespace
} // namespace suite
} // namespace spec17
