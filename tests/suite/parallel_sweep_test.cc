/**
 * @file
 * Parallel sweep determinism: a sweep on N workers must be
 * indistinguishable from a sequential one. Golden tests pin the
 * contract -- byte-identical journals, identical telemetry series,
 * observer callbacks in canonical pair order -- and crash-resume
 * keeps working when the interrupted sweep ran on a worker pool.
 */

#include "suite/result_cache.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "telemetry/sink.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

RunnerOptions
fastOptions(unsigned jobs)
{
    RunnerOptions options;
    options.sampleOps = 60000;
    options.warmupOps = 20000;
    options.jobs = jobs;
    return options;
}

std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_par_" + tag;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<std::string>
pairNames(InputSize size)
{
    std::vector<std::string> names;
    for (const auto &pair :
         enumeratePairs(workloads::cpu2006Suite(), size))
        names.push_back(pair.displayName());
    return names;
}

void
expectResultsIdentical(const std::vector<PairResult> &a,
                       const std::vector<PairResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].errored, b[i].errored) << a[i].name;
        EXPECT_EQ(a[i].attempts, b[i].attempts) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].wallCycles, b[i].wallCycles) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds) << a[i].name;
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(a[i].counters.get(event), b[i].counters.get(event))
                << a[i].name << " " << perfEventName(event);
        }
    }
}

TEST(ParallelSweep, ResultsMatchSequentialAtAnyJobCount)
{
    SuiteRunner sequential(fastOptions(1));
    SuiteRunner parallel(fastOptions(8));
    const auto golden =
        sequential.runAll(workloads::cpu2006Suite(), InputSize::Test);
    const auto pooled =
        parallel.runAll(workloads::cpu2006Suite(), InputSize::Test);
    expectResultsIdentical(golden, pooled);
}

TEST(ParallelSweep, ZeroJobsMeansHardwareConcurrency)
{
    SuiteRunner sequential(fastOptions(1));
    SuiteRunner parallel(fastOptions(0));
    const auto golden =
        sequential.runAll(workloads::cpu2006Suite(), InputSize::Test);
    const auto pooled =
        parallel.runAll(workloads::cpu2006Suite(), InputSize::Test);
    expectResultsIdentical(golden, pooled);
}

TEST(ParallelSweep, ConfigKeyIgnoresJobs)
{
    // Parallelism must not invalidate caches: a journal written at
    // --jobs=1 replays at --jobs=8 and vice versa.
    SuiteRunner sequential(fastOptions(1));
    SuiteRunner parallel(fastOptions(8));
    EXPECT_EQ(sequential.configKey(), parallel.configKey());
}

TEST(ParallelSweep, JournalBytesAreIdenticalAcrossJobCounts)
{
    const auto &suite = workloads::cpu2006Suite();

    const std::string seq_base = tempBase("golden_seq");
    ResultCache seq_cache(seq_base);
    seq_cache.invalidate();
    seq_cache.runOrLoad(SuiteRunner(fastOptions(1)), suite,
                        InputSize::Test);

    const std::string par_base = tempBase("golden_par");
    ResultCache par_cache(par_base);
    par_cache.invalidate();
    par_cache.runOrLoad(SuiteRunner(fastOptions(8)), suite,
                        InputSize::Test);

    const std::string seq_bytes =
        fileBytes(seq_base + ".cpu2006.test.csv");
    ASSERT_FALSE(seq_bytes.empty());
    EXPECT_EQ(fileBytes(par_base + ".cpu2006.test.csv"), seq_bytes);
    seq_cache.invalidate();
    par_cache.invalidate();
}

TEST(ParallelSweep, TelemetrySeriesMatchSequential)
{
    const auto &suite = workloads::cpu2006Suite();
    telemetry::MemorySink seq_sink, par_sink;

    RunnerOptions seq_options = fastOptions(1);
    seq_options.sampleIntervalOps = 20000;
    seq_options.telemetrySink = &seq_sink;
    SuiteRunner(seq_options).runAll(suite, InputSize::Test);

    RunnerOptions par_options = fastOptions(8);
    par_options.sampleIntervalOps = 20000;
    par_options.telemetrySink = &par_sink;
    SuiteRunner(par_options).runAll(suite, InputSize::Test);

    ASSERT_FALSE(seq_sink.all().empty());
    ASSERT_EQ(par_sink.all().size(), seq_sink.all().size());
    for (const auto &[name, series] : seq_sink.all()) {
        const telemetry::TimeSeries *other = par_sink.find(name);
        ASSERT_NE(other, nullptr) << name;
        std::ostringstream seq_csv, par_csv;
        telemetry::renderSeriesCsv(series, seq_csv);
        telemetry::renderSeriesCsv(*other, par_csv);
        EXPECT_EQ(par_csv.str(), seq_csv.str()) << name;
    }
}

TEST(ParallelSweep, ObserverSeesCanonicalOrderUnderParallelism)
{
    SuiteRunner runner(fastOptions(8));
    std::vector<std::string> seen_names;
    std::vector<std::size_t> seen_indices;
    // An empty path is a pass-through cache: every pair simulates.
    const auto results = ResultCache("").runOrLoad(
        runner, workloads::cpu2006Suite(), InputSize::Test,
        [&](const PairResult &result, std::size_t index,
            std::size_t total) {
            // The ordered-commit drain serializes observer calls, so
            // no synchronization is needed here even at jobs=8.
            EXPECT_EQ(total, pairNames(InputSize::Test).size());
            seen_names.push_back(result.name);
            seen_indices.push_back(index);
        });

    const auto names = pairNames(InputSize::Test);
    ASSERT_EQ(seen_names.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(seen_indices[i], i);
        EXPECT_EQ(seen_names[i], names[i]);
        EXPECT_EQ(results[i].name, names[i]);
    }
}

TEST(ParallelSweep, InjectedThrowIsContainedUnderParallelism)
{
    const auto names = pairNames(InputSize::Test);
    const std::string &victim = names[names.size() / 2];

    ScriptedFaultInjector injector;
    injector.set(victim, 0, FaultInjector::Action::Throw);
    RunnerOptions options = fastOptions(4);
    options.faultInjector = &injector;
    SuiteRunner runner(options);

    const auto results =
        runner.runAll(workloads::cpu2006Suite(), InputSize::Test);
    ASSERT_EQ(results.size(), names.size());
    for (const auto &result : results) {
        if (result.name == victim) {
            EXPECT_TRUE(result.errored);
            ASSERT_NE(result.finalFailure(), nullptr);
            EXPECT_EQ(result.finalFailure()->category,
                      FailureCategory::Injected);
        } else {
            EXPECT_FALSE(result.errored) << result.name;
        }
    }
}

/** Truncates the journal at @p file to its first @p keep_rows rows. */
void
truncateJournal(const std::string &file, std::size_t keep_rows)
{
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    std::string line, kept;
    for (std::size_t i = 0; i < keep_rows + 2; ++i) {
        ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
        kept += line + "\n";
    }
    in.close();
    std::ofstream out(file, std::ios::trunc);
    out << kept;
}

TEST(ParallelSweep, ResumeMidParallelSweepIsByteIdentical)
{
    const std::string base = tempBase("resume");
    const std::string file = base + ".cpu2006.test.csv";
    const auto &suite = workloads::cpu2006Suite();

    ResultCache cache(base);
    cache.invalidate();
    const auto golden = cache.runOrLoad(SuiteRunner(fastOptions(4)),
                                        suite, InputSize::Test);
    const std::string golden_bytes = fileBytes(file);
    ASSERT_FALSE(golden_bytes.empty());

    // A parallel sweep killed after 11 journal commits leaves exactly
    // a valid prefix: the ordered-commit drain never journals pair i
    // before pairs [0, i) are on disk, worker pool or not.
    constexpr std::size_t kCompleted = 11;
    truncateJournal(file, kCompleted);

    ScriptedFaultInjector probe;
    RunnerOptions probe_options = fastOptions(4);
    probe_options.faultInjector = &probe;
    SuiteRunner probe_runner(probe_options);
    ResultCache resumed(base, /*resume=*/true);
    const auto results =
        resumed.runOrLoad(probe_runner, suite, InputSize::Test);

    // Exactly the non-replayed pairs were simulated. With jobs > 1
    // the consultation log is in completion order, so compare sets.
    const auto names = pairNames(InputSize::Test);
    ASSERT_EQ(results.size(), names.size());
    std::vector<std::string> simulated;
    for (const auto &[pair, attempt] : probe.consulted()) {
        EXPECT_EQ(attempt, 0u);
        simulated.push_back(pair);
    }
    std::vector<std::string> expected(names.begin() + kCompleted,
                                      names.end());
    std::sort(simulated.begin(), simulated.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(simulated, expected);

    EXPECT_EQ(fileBytes(file), golden_bytes);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].name, golden[i].name);
        EXPECT_EQ(results[i].replayed, i < kCompleted);
        EXPECT_DOUBLE_EQ(results[i].seconds, golden[i].seconds);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(results[i].counters.get(event),
                      golden[i].counters.get(event));
        }
    }
    resumed.invalidate();
}

} // namespace
} // namespace suite
} // namespace spec17
