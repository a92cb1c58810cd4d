/**
 * @file
 * Benchmark harness: runs one workload campaign, cold, in this
 * process and prints one JSON line describing it on stdout.
 *
 *   spec17_perfbench --workload NAME --dir DIR [--seed N]
 *                    [--traced | --setup-only]
 *
 * The untraced run drives the public entry points the CLI verbs use
 * (core::Characterizer, explore::ExploreRunner, corun::CorunRunner
 * with corun::CorunStore). The traced run (--traced) makes the same
 * campaign's calls layer by layer from this file -- in
 * SuiteRunner::runPairAttempt's order for pairs, through
 * runFanoutSweep for explore points, in CorunRunner::runGroup's order
 * for co-run groups -- and records a span around each call. Both
 * runs print a digest over every result; equal digests show that the
 * traced decomposition computed the same campaign.
 *
 * DIR must be fresh: every journal of the campaign goes there, so no
 * run can replay another run's results. perfbench/run.py owns the
 * process lifecycle, the timing of set-up and peak memory, and the
 * correctness gates.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hierarchical.hh"
#include "core/characterizer.hh"
#include "core/metrics.hh"
#include "core/pca_features.hh"
#include "core/redundancy.hh"
#include "core/subset.hh"
#include "corun/analysis.hh"
#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"
#include "digest.hh"
#include "explore/plan.hh"
#include "explore/runner.hh"
#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "stats/factor.hh"
#include "stats/pca.hh"
#include "suite/arena_store.hh"
#include "suite/fanout.hh"
#include "suite/result_cache.hh"
#include "suite/runner.hh"
#include "trace/arena.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"
#include "util/units.hh"
#include "workloads/builder.hh"
#include "workloads/profile.hh"

namespace spec17 {
namespace perfbench {
namespace {

using counters::PerfEvent;
using suite::PairResult;
using workloads::InputSize;
using workloads::SuiteGeneration;

/** The verbs' default arena budget (`--trace-arena-mb`). */
constexpr std::uint64_t kArenaBytes = 512 * kMiB;
/** The co-run demo subset `spec17 corun` uses without --apps. */
const std::vector<std::string> kCorunApps = {
    "505.mcf_r", "519.lbm_r", "541.leela_r", "548.exchange2_r"};
const std::vector<std::string> kExploreAxes = {"predictor",
                                               "way-predictor"};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span log: name, start, end and parent of every traced
 * call. Self times are derived from it after the run (run.py), so the
 * only cost on the traced path is two clock reads per span.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
    };

    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name)
            : tracer_(tracer), index_(tracer.open(name))
        {
        }
        ~Scope() { tracer_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of the first span named @p name, seconds. */
    double
    seconds(const std::string &name) const
    {
        for (const Span &span : spans_)
            if (span.name == name)
                return double(span.end - span.start) * 1e-9;
        return 0.0;
    }

  private:
    int
    open(const char *name)
    {
        spans_.push_back({name, nowNs(), 0, open_});
        open_ = int(spans_.size()) - 1;
        return open_;
    }

    void
    close(int index)
    {
        spans_[index].end = nowNs();
        open_ = spans_[index].parent;
    }

    std::vector<Span> spans_;
    int open_ = -1;
};

using Scope = Tracer::Scope;

/** Everything one campaign run reports. */
struct Outcome
{
    std::int64_t firstOpNs = 0;  //!< just before the first simulated op
    std::int64_t sweepEndNs = 0; //!< last simulated result returned
    std::int64_t endNs = 0;      //!< analysis done
    /** Pairs, point-pairs or groups the campaign ran. */
    std::uint64_t operations = 0;
    /** Of those, the ones that errored at runtime. */
    std::uint64_t runtimeErrored = 0;
    /** Results that came back replayed from a journal (cold guard). */
    std::uint64_t replayed = 0;
    std::uint64_t spillLoads = 0;
    /** Simulated micro-ops: warmup plus measured, from the results. */
    std::uint64_t simOps = 0;
    double modelSse = 0.0;
    std::string digest;
    /** Failed internal checks, human readable. */
    std::vector<std::string> checkFailures;
    /** Exact per-layer counts (name -> value). */
    std::map<std::string, double> counts;
};

/** Folds pair results into the exact simulated-count summaries. */
struct PairTotals
{
    std::uint64_t ops = 0;
    std::uint64_t runtimeErrored = 0;
    std::uint64_t replayed = 0;
    double sse = 0.0;
    double ipcSum = 0.0;
    std::uint64_t ipcPairs = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0, l3Hits = 0, l3Misses = 0;
    std::uint64_t branches = 0, mispredicts = 0;

    void
    add(const PairResult &pair, std::uint64_t warmup_ops)
    {
        if (pair.finalFailure() != nullptr)
            ++runtimeErrored;
        if (pair.replayed)
            ++replayed;
        const std::uint64_t retired =
            pair.counters.get(PerfEvent::InstRetiredAny);
        if (retired > 0)
            ops += retired + warmup_ops;
        if (pair.errored)
            return;
        sse += explore::pairSse(pair);
        ipcSum += core::deriveMetrics(pair).ipc;
        ++ipcPairs;
        l1Hits += pair.counters.get(PerfEvent::MemLoadUopsRetiredL1Hit);
        l1Misses += pair.counters.get(PerfEvent::MemLoadUopsRetiredL1Miss);
        l3Hits += pair.counters.get(PerfEvent::MemLoadUopsRetiredL3Hit);
        l3Misses += pair.counters.get(PerfEvent::MemLoadUopsRetiredL3Miss);
        branches += pair.counters.get(PerfEvent::BrInstExecAllBranches);
        mispredicts += pair.counters.get(PerfEvent::BrMispExecAllBranches);
    }
};

double
percent(std::uint64_t part, std::uint64_t whole)
{
    return whole > 0 ? 100.0 * double(part) / double(whole) : 0.0;
}

/** Simulated-count metrics that must not move between versions. */
void
recordPairCounts(Outcome &out, const PairTotals &totals)
{
    out.counts["sim.ipc_mean"] =
        totals.ipcPairs > 0 ? totals.ipcSum / double(totals.ipcPairs)
                            : 0.0;
    out.counts["sim.l1d_miss_pct"] =
        percent(totals.l1Misses, totals.l1Hits + totals.l1Misses);
    out.counts["sim.l3_miss_pct"] =
        percent(totals.l3Misses, totals.l3Hits + totals.l3Misses);
    out.counts["sim.mispredict_pct"] =
        percent(totals.mispredicts, totals.branches);
}

void
recordArena(Outcome &out, const suite::TraceArenaStore &store)
{
    const suite::TraceArenaStore::Stats stats = store.stats();
    out.spillLoads = stats.spillLoads;
    out.counts["suite.arena.captures"] = double(stats.captures);
    out.counts["suite.arena.hits"] = double(stats.hits);
    out.counts["suite.arena.evictions"] = double(stats.evictions);
    out.counts["suite.arena.resident_mib"] =
        double(stats.residentBytes) / double(kMiB);
}

/** Bytes of every journal the campaign left in @p dir. */
double
journalBytes(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return double(bytes);
}

/**
 * Arena acquisition that remembers what it captured: the traced runs
 * route every acquire through here, so capture volume and the
 * live-generation reference cover exactly the captured streams.
 */
class CaptureLog
{
  public:
    explicit CaptureLog(suite::TraceArenaStore &store) : store_(store) {}

    std::shared_ptr<const trace::TraceArena>
    acquire(const trace::SyntheticTraceParams &params)
    {
        const std::uint64_t before = store_.stats().captures;
        auto arena = store_.acquire(params);
        if (store_.stats().captures != before) {
            captured_.push_back(params);
            ops_ += arena->numOps;
            bytes_ += arena->byteSize();
        }
        return arena;
    }

    /**
     * The reference the capture layer is judged against: generates
     * every captured stream again, live, through nextBatchSoA in the
     * simulator's default batch size. Runs outside the campaign.
     */
    void
    generateLive(Tracer &tracer) const
    {
        const std::size_t batch_ops = sim::CpuSimulator::kDefaultBatchOps;
        trace::MicroOpBatch batch;
        for (const trace::SyntheticTraceParams &params : captured_) {
            Scope span(tracer, "trace.gen");
            trace::SyntheticTraceGenerator generator(params);
            while (generator.nextBatchSoA(batch, 0, batch_ops) == batch_ops) {
            }
        }
    }

    void
    record(Outcome &out) const
    {
        out.counts["trace.captured_mib"] = double(bytes_) / double(kMiB);
        out.counts["trace.captured_ops"] = double(ops_);
    }

  private:
    suite::TraceArenaStore &store_;
    std::vector<trace::SyntheticTraceParams> captured_;
    std::uint64_t ops_ = 0;
    std::uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------
// characterize-ref: `spec17 characterize --suite=cpu2017 --size=ref`,
// then the journal reload and the paper's redundancy analysis.

suite::RunnerOptions
characterizeRunner(std::uint64_t seed)
{
    suite::RunnerOptions options;
    options.sampleOps = 1'000'000; // the verb's --sample default
    options.warmupOps = 300'000;
    options.seed = seed;
    options.jobs = 1;
    return options;
}

/** The analysis half of the campaign (Figs. 7-10, Table X). */
struct Analysis
{
    std::vector<core::RedundancyAnalysis> redundancy; // all, rate, speed
    std::vector<core::SubsetSuggestion> subsets;      // rate, speed
};

/** core::analyzeRedundancy, one call per layer for the traced run. */
core::RedundancyAnalysis
analyzeTraced(Tracer &tracer, const std::vector<PairResult> &results)
{
    const core::RedundancyOptions options;
    core::RedundancyAnalysis out;
    const stats::Matrix observations =
        core::pcaFeatureMatrix(results, out.sourceIndex);
    for (std::size_t index : out.sourceIndex) {
        out.pairNames.push_back(results[index].name);
        out.pairSeconds.push_back(results[index].seconds);
    }
    {
        Scope span(tracer, "stats.pca");
        out.pca = stats::computePca(observations);
    }
    out.numComponents = std::max(
        options.minComponents,
        out.pca.componentsForVariance(options.varianceFraction));
    out.numComponents =
        std::min(out.numComponents, out.pca.scores.cols());
    out.pcScores = out.pca.truncatedScores(out.numComponents);
    {
        Scope span(tracer, "cluster.agglomerate");
        out.dendrogram =
            cluster::agglomerate(out.pcScores, options.linkage);
    }
    out.factors = stats::summarizeFactors(
        out.pca, core::pcaFeatureNames(), out.numComponents);
    return out;
}

std::vector<PairResult>
sliceBySpeed(const std::vector<PairResult> &rows, bool speed)
{
    std::vector<PairResult> slice;
    for (const PairResult &row : rows)
        if (workloads::isSpeedSuite(row.profile->suite) == speed)
            slice.push_back(row);
    return slice;
}

void
finishCharacterize(Outcome &out, const suite::RunnerOptions &runner,
                   const std::vector<PairResult> &rows,
                   const std::vector<PairResult> &reloaded,
                   const Analysis &analysis)
{
    PairTotals totals;
    for (const PairResult &row : rows)
        totals.add(row, runner.warmupOps);
    out.operations = rows.size();
    out.runtimeErrored = totals.runtimeErrored;
    out.replayed = totals.replayed;
    out.simOps = totals.ops;
    out.modelSse = totals.sse;
    recordPairCounts(out, totals);

    Digest sweep;
    addPairs(sweep, rows);
    Digest reload;
    addPairs(reload, reloaded);
    if (sweep.hex() != reload.hex())
        out.checkFailures.push_back(
            "journal reload does not reproduce the sweep's results");
    std::uint64_t replayed = 0;
    for (const PairResult &row : reloaded)
        replayed += row.replayed ? 1 : 0;
    if (replayed != rows.size())
        out.checkFailures.push_back(
            "journal reload re-simulated pairs instead of replaying");

    Digest digest = sweep;
    for (const core::RedundancyAnalysis &r : analysis.redundancy)
        digest.add(std::uint64_t(r.numComponents))
            .add(std::uint64_t(r.pairNames.size()));
    for (const core::SubsetSuggestion &s : analysis.subsets) {
        digest.add(std::uint64_t(s.chosen));
        for (const core::Representative &rep : s.representatives)
            digest.add(rep.name);
    }
    out.digest = digest.hex();
}

Outcome
characterizeUntraced(std::uint64_t seed, const std::string &dir,
                     bool setup_only)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    core::CharacterizerOptions options;
    options.runner = characterizeRunner(seed);
    options.runner.arenaStore = &store;
    options.cachePath = dir + "/results";
    std::uint64_t commits = 0;
    options.pairObserver = [&commits](const PairResult &, std::size_t,
                                      std::size_t) { ++commits; };
    core::Characterizer session(options);
    workloads::cpu2017Suite();

    out.firstOpNs = nowNs();
    if (setup_only)
        return out;
    const std::vector<PairResult> &rows =
        session.results(SuiteGeneration::Cpu2017, InputSize::Ref);
    out.sweepEndNs = nowNs();
    options.pairObserver = nullptr;
    core::Characterizer reload(options);
    Analysis analysis;
    analysis.redundancy.push_back(reload.redundancyAll());
    analysis.redundancy.push_back(reload.redundancyFor(false));
    analysis.redundancy.push_back(reload.redundancyFor(true));
    analysis.subsets.push_back(
        core::suggestSubset(analysis.redundancy[1]));
    analysis.subsets.push_back(
        core::suggestSubset(analysis.redundancy[2]));
    out.endNs = nowNs();

    finishCharacterize(
        out, options.runner, rows,
        reload.results(SuiteGeneration::Cpu2017, InputSize::Ref),
        analysis);
    recordArena(out, store);
    out.counts["suite.journal.commits"] = double(commits);
    out.counts["suite.journal.bytes"] = journalBytes(dir);
    return out;
}

/** SuiteRunner::runPairAttempt (attempt 0, no faults, no watchdog)
 *  one layer at a time. */
PairResult
runPairTraced(Tracer &tracer, CaptureLog &arenas,
              const suite::RunnerOptions &options,
              const workloads::AppInputPair &pair)
{
    Scope pair_span(tracer, "suite.pair");
    const workloads::WorkloadProfile &profile = *pair.profile;
    PairResult result = suite::makePairResult(pair);
    const workloads::BuildOptions build =
        suite::attemptBuildOptions(options, 0);
    const std::uint64_t pair_seed = suite::pairSimSeed(pair, build.seed);

    sim::SimResult sim_result;
    if (profile.numThreads > 1) {
        std::unique_ptr<sim::MulticoreSimulator> multicore;
        {
            Scope span(tracer, "sim.setup");
            multicore = std::make_unique<sim::MulticoreSimulator>(
                options.system, profile.numThreads, pair_seed);
        }
        std::vector<std::shared_ptr<trace::TraceSource>> sources;
        for (unsigned t = 0; t < profile.numThreads; ++t) {
            std::unique_ptr<trace::SyntheticTraceGenerator> gen;
            {
                Scope span(tracer, "workloads.build");
                gen = std::make_unique<trace::SyntheticTraceGenerator>(
                    workloads::buildTraceParams(pair, build, t));
            }
            {
                Scope span(tracer, "sim.setup");
                suite::prefillSteadyState(multicore->mutableCore(t), *gen);
            }
            Scope span(tracer, "trace.capture");
            sources.push_back(std::make_shared<trace::ReplaySource>(
                arenas.acquire(gen->params())));
        }
        Scope span(tracer, "sim.multicore");
        sim_result = multicore->run(
            sources, 10'000, options.warmupOps / profile.numThreads);
    } else {
        std::unique_ptr<trace::SyntheticTraceGenerator> generator;
        {
            Scope span(tracer, "workloads.build");
            generator = std::make_unique<trace::SyntheticTraceGenerator>(
                workloads::buildTraceParams(pair, build, 0));
        }
        std::unique_ptr<trace::ReplaySource> replay;
        {
            Scope span(tracer, "trace.capture");
            replay = std::make_unique<trace::ReplaySource>(
                arenas.acquire(generator->params()));
        }
        std::unique_ptr<sim::CpuSimulator> simulator;
        {
            Scope span(tracer, "sim.setup");
            simulator = std::make_unique<sim::CpuSimulator>(
                options.system, pair_seed);
            suite::prefillSteadyState(*simulator, *generator);
        }
        Scope span(tracer, "sim.step");
        simulator->step(*replay, options.warmupOps);
        const counters::CounterSet warm = simulator->snapshot();
        const double warm_cycles = simulator->core().cycles();
        constexpr std::uint64_t kChunk = 1 << 20;
        while (simulator->step(*replay, kChunk) == kChunk) {
        }
        sim_result = simulator->finish(*replay);
        const std::uint64_t vsz =
            sim_result.counters.get(PerfEvent::VszBytes);
        sim_result.counters = sim_result.counters.diff(warm);
        sim_result.counters.set(PerfEvent::VszBytes, vsz);
        sim_result.counters.set(PerfEvent::RssBytes,
                                simulator->footprint().rssBytes());
        sim_result.cycles -= warm_cycles;
    }
    suite::finalizePairResult(options, sim_result, result);
    return result;
}

Outcome
characterizeTraced(std::uint64_t seed, const std::string &dir,
                   Tracer &tracer)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    CaptureLog arenas(store);
    suite::RunnerOptions options = characterizeRunner(seed);
    options.arenaStore = &store;
    const suite::SuiteRunner runner(options);
    const std::string cache_path = dir + "/results";
    suite::ResultCache cache(cache_path);
    const auto &suite = workloads::cpu2017Suite();
    const auto pairs = workloads::enumeratePairs(suite, InputSize::Ref);

    out.firstOpNs = nowNs();
    std::vector<PairResult> rows;
    std::vector<PairResult> reloaded;
    Analysis analysis;
    {
        Scope campaign(tracer, "campaign");
        cache.beginSweep(runner, suite, InputSize::Ref, pairs);
        for (const workloads::AppInputPair &pair : pairs) {
            rows.push_back(runPairTraced(tracer, arenas, options, pair));
            Scope span(tracer, "suite.journal.commit");
            cache.checkpoint(runner, suite, InputSize::Ref, rows);
        }
        {
            Scope span(tracer, "suite.journal.commit");
            cache.finish(runner, suite, InputSize::Ref, rows);
        }
        {
            Scope span(tracer, "suite.journal.load");
            suite::ResultCache fresh(cache_path);
            reloaded = fresh.runOrLoad(runner, suite, InputSize::Ref);
        }
        Scope span(tracer, "core.analysis");
        analysis.redundancy.push_back(analyzeTraced(tracer, reloaded));
        analysis.redundancy.push_back(
            analyzeTraced(tracer, sliceBySpeed(reloaded, false)));
        analysis.redundancy.push_back(
            analyzeTraced(tracer, sliceBySpeed(reloaded, true)));
        analysis.subsets.push_back(
            core::suggestSubset(analysis.redundancy[1]));
        analysis.subsets.push_back(
            core::suggestSubset(analysis.redundancy[2]));
    }
    arenas.generateLive(tracer);

    finishCharacterize(out, options, rows, reloaded, analysis);
    arenas.record(out);
    return out;
}

// ---------------------------------------------------------------------
// explore-cross: `spec17 explore --multi-axis=predictor,way-predictor
// --suite=cpu2006 --size=test` at the explore defaults.

explore::ExploreOptions
exploreOptions(std::uint64_t seed, suite::TraceArenaStore &store,
               const std::string &dir)
{
    explore::ExploreOptions options;
    options.runner.sampleOps = 400'000; // the verb's --sample default
    options.runner.warmupOps = 150'000;
    options.runner.seed = seed;
    options.runner.jobs = 1;
    options.runner.arenaStore = &store;
    options.generation = SuiteGeneration::Cpu2006;
    options.size = InputSize::Test;
    options.cachePath = dir + "/results";
    return options;
}

void
finishExplore(Outcome &out, const explore::ExploreOptions &options,
              const std::vector<PairResult> &rows,
              const std::vector<explore::PointResult> &points)
{
    PairTotals totals;
    for (const PairResult &row : rows)
        totals.add(row, options.runner.warmupOps);
    out.operations = rows.size();
    out.runtimeErrored = totals.runtimeErrored;
    out.replayed = totals.replayed;
    out.simOps = totals.ops;
    recordPairCounts(out, totals);
    out.counts["suite.journal.commits"] = double(rows.size());

    std::size_t knees = 0;
    for (const explore::PointResult &point : points) {
        if (point.knee) {
            out.modelSse = point.sse;
            ++knees;
        }
    }
    if (knees != 1)
        out.checkFailures.push_back("explore marked " + std::to_string(knees)
                                    + " knee points, want 1");
    Digest digest;
    addPairs(digest, rows);
    addPoints(digest, points);
    out.digest = digest.hex();
}

Outcome
exploreUntraced(std::uint64_t seed, const std::string &dir,
                bool setup_only)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    explore::ExploreOptions options = exploreOptions(seed, store, dir);
    std::vector<PairResult> rows;
    options.pairObserver = [&rows](const PairResult &row, std::size_t,
                                   std::size_t) { rows.push_back(row); };
    const explore::ExploreRunner runner(options);
    workloads::cpu2006Suite();

    out.firstOpNs = nowNs();
    if (setup_only)
        return out;
    const std::vector<explore::PointResult> points =
        runner.runCross(kExploreAxes);
    out.sweepEndNs = out.endNs = nowNs();

    finishExplore(out, options, rows, points);
    recordArena(out, store);
    out.counts["suite.journal.bytes"] = journalBytes(dir);
    return out;
}

/** ExploreRunner::runPoints' scoring of one point. */
explore::PointResult
scorePoint(const explore::ExplorePoint &point,
           const std::vector<PairResult> &rows)
{
    explore::PointResult scored;
    scored.point = point;
    double ipc_sum = 0.0;
    for (const PairResult &pair : rows) {
        if (pair.errored) {
            ++scored.errored;
            continue;
        }
        scored.sse += explore::pairSse(pair);
        ipc_sum += core::deriveMetrics(pair).ipc;
        ++scored.pairs;
    }
    if (scored.pairs > 0)
        scored.meanIpc = ipc_sum / double(scored.pairs);
    return scored;
}

Outcome
exploreTraced(std::uint64_t seed, const std::string &dir, Tracer &tracer)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    CaptureLog arenas(store);
    explore::ExploreOptions options = exploreOptions(seed, store, dir);
    const explore::ExploreRunner runner(options);
    const auto &suite = workloads::cpu2006Suite();

    out.firstOpNs = nowNs();
    std::vector<PairResult> rows;
    std::vector<explore::PointResult> points;
    {
        Scope campaign(tracer, "campaign");
        std::vector<explore::ExplorePoint> plan;
        {
            Scope span(tracer, "explore.plan");
            plan = explore::planCross(kExploreAxes, options.runner.system);
        }
        // Every stream captured up front, so the fan-out below runs
        // with its arenas already resident.
        const workloads::BuildOptions build =
            suite::attemptBuildOptions(options.runner, 0);
        for (const auto &pair :
             workloads::enumeratePairs(suite, options.size)) {
            for (unsigned t = 0; t < pair.profile->numThreads; ++t) {
                std::unique_ptr<trace::SyntheticTraceGenerator> gen;
                {
                    Scope span(tracer, "workloads.build");
                    gen = std::make_unique<trace::SyntheticTraceGenerator>(
                        workloads::buildTraceParams(pair, build, t));
                }
                Scope span(tracer, "trace.capture");
                arenas.acquire(gen->params());
            }
        }
        std::vector<suite::FanoutSession> sessions;
        for (const explore::ExplorePoint &point : plan) {
            suite::FanoutSession session;
            session.runner = options.runner;
            session.runner.system = point.system;
            session.cachePath = runner.pointCachePath(point);
            session.observer = [&rows](const PairResult &row, std::size_t,
                                       std::size_t) {
                rows.push_back(row);
            };
            sessions.push_back(std::move(session));
        }
        std::vector<std::vector<PairResult>> sweeps;
        {
            Scope span(tracer, "suite.fanout");
            sweeps = suite::runFanoutSweep(sessions, suite, options.size);
        }
        Scope span(tracer, "explore.score");
        for (std::size_t i = 0; i < plan.size(); ++i)
            points.push_back(scorePoint(plan[i], sweeps[i]));
        explore::markPareto(points);
    }
    arenas.generateLive(tracer);

    finishExplore(out, options, rows, points);
    arenas.record(out);
    return out;
}

// ---------------------------------------------------------------------
// corun-partition: `spec17 corun --size=ref --partition
// --apps=505.mcf_r,519.lbm_r,541.leela_r,548.exchange2_r --no-self`.

corun::CorunOptions
corunOptions(std::uint64_t seed, suite::TraceArenaStore &store)
{
    corun::CorunOptions options; // the verb's sample/warmup/chunk
    options.seed = seed;
    options.size = InputSize::Ref;
    options.jobs = 1;
    options.arenaStore = &store;
    return options;
}

std::vector<corun::CorunGroup>
corunPlan(const corun::CorunOptions &options)
{
    corun::PlanOptions plan;
    plan.apps = kCorunApps;
    plan.groupSize = 2;
    plan.includeSelf = false;
    plan.partitionSweep = true;
    plan.l3Ways = options.system.hierarchy.l3.assoc;
    return corun::planGroups(workloads::cpu2017Suite(), plan);
}

/** Input seeds the co-run member validation averages over. */
constexpr std::uint64_t kCorunValidationSeeds = 16;

/**
 * Co-run groups have no paper reference, so the error figure is taken
 * on the members alone: each app run solo through SuiteRunner::runPair
 * on the same machine at the campaign's sample sizes, scored with
 * explore::pairSse. Four apps are too few for a steady figure, so it
 * is the median over 16 seeds derived from the campaign's seed (hashed,
 * so that runs at neighbouring seeds share none). Runs after the
 * campaign, outside its timing; returns the validated pairs.
 */
std::vector<PairResult>
validateCorunMembers(Outcome &out, const corun::CorunOptions &options)
{
    suite::RunnerOptions runner_options;
    runner_options.system = options.system;
    runner_options.sampleOps = options.sampleOps;
    runner_options.warmupOps = options.warmupOps;
    PairTotals totals;
    std::vector<PairResult> rows;
    std::vector<double> seed_sse;
    for (std::uint64_t k = 0; k < kCorunValidationSeeds; ++k) {
        runner_options.seed = deriveSeed(options.seed, k);
        const suite::SuiteRunner runner(runner_options);
        const double before = totals.sse;
        for (const std::string &app : kCorunApps) {
            workloads::AppInputPair pair;
            pair.profile = &workloads::findProfile(
                workloads::cpu2017Suite(), app);
            pair.size = options.size;
            rows.push_back(runner.runPair(pair));
            totals.add(rows.back(), options.warmupOps);
        }
        seed_sse.push_back(totals.sse - before);
    }
    // The per-seed error is heavy-tailed (one app at one seed can
    // triple it), so the median is the steadier summary.
    std::nth_element(seed_sse.begin(),
                     seed_sse.begin() + seed_sse.size() / 2,
                     seed_sse.end());
    out.modelSse = seed_sse[seed_sse.size() / 2];
    out.counts["sim.l1d_miss_pct"] =
        percent(totals.l1Misses, totals.l1Hits + totals.l1Misses);
    out.counts["sim.mispredict_pct"] =
        percent(totals.mispredicts, totals.branches);
    return rows;
}

void
finishCorun(Outcome &out, const corun::CorunOptions &options,
            const std::vector<corun::CorunResult> &results,
            const std::vector<corun::AppScore> &scores,
            const std::vector<corun::ParetoRow> &pareto)
{
    out.operations = results.size();
    std::uint64_t l3_hits = 0, l3_misses = 0, suffered = 0, members = 0;
    double ipc_sum = 0.0;
    std::map<std::string, int> solo_apps;
    for (const corun::CorunResult &result : results) {
        out.replayed += result.replayed ? 1 : 0;
        for (const corun::MemberResult &m : result.members) {
            out.simOps += m.instructions + options.warmupOps;
            l3_hits += m.l3Hits;
            l3_misses += m.l3Misses;
            suffered += m.evictionsSuffered;
            ipc_sum += m.ipc();
            ++members;
            solo_apps[m.name] = 1;
        }
    }
    // Each solo baseline drains its whole stream once.
    out.simOps += solo_apps.size() * (options.sampleOps + options.warmupOps);
    out.counts["sim.ipc_mean"] = members > 0 ? ipc_sum / double(members)
                                             : 0.0;
    out.counts["sim.l3_miss_pct"] = percent(l3_misses, l3_hits + l3_misses);
    out.counts["corun.l3_evictions_suffered"] = double(suffered);

    Digest digest;
    addGroups(digest, results);
    addParetoRows(digest, pareto);
    for (const corun::AppScore &score : scores)
        digest.add(score.app).add(score.sensitivity).add(
            score.aggressiveness);
    addPairs(digest, validateCorunMembers(out, options));
    out.digest = digest.hex();
}

Outcome
corunUntraced(std::uint64_t seed, const std::string &dir,
              bool setup_only)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    const corun::CorunOptions options = corunOptions(seed, store);
    const std::vector<corun::CorunGroup> groups = corunPlan(options);
    const corun::CorunRunner runner(options);
    corun::CorunStore journal(dir + "/results");
    std::uint64_t commits = 0;
    const corun::CorunRunner::GroupObserver observer =
        [&commits](const corun::CorunResult &, std::size_t,
                   std::size_t) { ++commits; };

    out.firstOpNs = nowNs();
    if (setup_only)
        return out;
    const std::vector<corun::CorunResult> results =
        journal.runOrLoad(runner, groups, observer);
    out.sweepEndNs = nowNs();
    const std::vector<corun::AppScore> scores =
        corun::scoreApps(corun::buildMatrix(results));
    const std::vector<corun::ParetoRow> pareto =
        corun::paretoTable(results);
    out.endNs = nowNs();

    finishCorun(out, options, results, scores, pareto);
    recordArena(out, store);
    out.counts["suite.journal.commits"] = double(commits);
    out.counts["suite.journal.bytes"] = journalBytes(dir);
    return out;
}

/** CorunRunner's member trace parameters (memberParams). */
trace::SyntheticTraceParams
corunMemberParams(const corun::CorunOptions &options,
                  const workloads::WorkloadProfile &profile,
                  unsigned context)
{
    workloads::AppInputPair pair;
    pair.profile = &profile;
    pair.size = options.size;
    workloads::BuildOptions build;
    build.sampleOps = options.sampleOps + options.warmupOps;
    build.seed = deriveSeed(options.seed, "corun-trace");
    trace::SyntheticTraceParams params =
        workloads::buildTraceParams(pair, build, 0);
    params.addressOffset = std::uint64_t(context) * 8 * kGiB;
    return params;
}

/** One member's generator (prefill layout) and replayed arena. */
std::shared_ptr<trace::TraceSource>
corunMemberSource(Tracer &tracer, CaptureLog &arenas,
                  const corun::CorunOptions &options,
                  const workloads::WorkloadProfile &profile,
                  unsigned context, sim::CpuSimulator &core)
{
    std::unique_ptr<trace::SyntheticTraceGenerator> prefiller;
    {
        Scope span(tracer, "workloads.build");
        prefiller = std::make_unique<trace::SyntheticTraceGenerator>(
            corunMemberParams(options, profile, context));
    }
    {
        Scope span(tracer, "sim.setup");
        suite::prefillSteadyState(core, *prefiller);
    }
    Scope span(tracer, "trace.capture");
    return std::make_shared<trace::ReplaySource>(
        arenas.acquire(prefiller->params()));
}

/** CorunRunner::soloCycles, memoized per app like the runner's. */
double
corunSoloTraced(Tracer &tracer, CaptureLog &arenas,
                const corun::CorunOptions &options,
                const workloads::WorkloadProfile &profile,
                std::map<std::string, double> &memo)
{
    const auto hit = memo.find(profile.name);
    if (hit != memo.end())
        return hit->second;
    Scope solo(tracer, "corun.solo");
    std::unique_ptr<sim::MulticoreSimulator> machine;
    {
        Scope span(tracer, "sim.setup");
        machine = std::make_unique<sim::MulticoreSimulator>(
            options.system, 1,
            deriveSeed(deriveSeed(options.seed, "corun-solo"),
                       profile.name));
    }
    const auto source = corunMemberSource(tracer, arenas, options, profile,
                                          0, machine->mutableCore(0));
    Scope span(tracer, "sim.multicore");
    const double cycles = machine
                              ->runEach({source}, options.chunkOps,
                                        options.warmupOps)
                              .front()
                              .cycles;
    memo[profile.name] = cycles;
    return cycles;
}

/** CorunRunner::runGroup one layer at a time. */
corun::CorunResult
corunGroupTraced(Tracer &tracer, CaptureLog &arenas,
                 const corun::CorunOptions &options,
                 const corun::CorunGroup &group,
                 std::map<std::string, double> &solo_memo)
{
    Scope group_span(tracer, "corun.group");
    const auto n = static_cast<unsigned>(group.members.size());
    corun::CorunResult result;
    result.name = group.name();
    result.masks = group.masks;
    std::unique_ptr<sim::MulticoreSimulator> machine;
    {
        Scope span(tracer, "sim.setup");
        machine = std::make_unique<sim::MulticoreSimulator>(
            options.system, n,
            deriveSeed(deriveSeed(options.seed, "corun-sim"),
                       result.name));
        if (!group.masks.empty())
            machine->setWayPartition(group.masks);
    }
    std::vector<std::shared_ptr<trace::TraceSource>> sources;
    for (unsigned c = 0; c < n; ++c)
        sources.push_back(corunMemberSource(tracer, arenas, options,
                                            *group.members[c], c,
                                            machine->mutableCore(c)));
    std::vector<sim::SimResult> parts;
    {
        Scope span(tracer, "sim.multicore");
        parts = machine->runEach(sources, options.chunkOps,
                                 options.warmupOps);
    }
    const sim::SetAssocCache &l3 = machine->sharedL3();
    for (unsigned c = 0; c < n; ++c) {
        corun::MemberResult member;
        member.name = group.members[c]->name;
        member.cycles = parts[c].cycles;
        member.soloCycles = corunSoloTraced(tracer, arenas, options,
                                            *group.members[c], solo_memo);
        member.instructions =
            parts[c].counters.get(PerfEvent::InstRetiredAny);
        const sim::CacheContextStats &stats = l3.contextStats(c);
        member.l3Hits = stats.hits;
        member.l3Misses = stats.misses;
        member.evictionsInflicted = stats.evictionsInflicted;
        member.evictionsSuffered = stats.evictionsSuffered;
        member.occupancyLines = l3.contextOccupancy(c);
        result.members.push_back(std::move(member));
    }
    return result;
}

Outcome
corunTraced(std::uint64_t seed, const std::string &, Tracer &tracer)
{
    Outcome out;
    suite::TraceArenaStore store(kArenaBytes);
    CaptureLog arenas(store);
    const corun::CorunOptions options = corunOptions(seed, store);
    const std::vector<corun::CorunGroup> groups = corunPlan(options);

    out.firstOpNs = nowNs();
    std::vector<corun::CorunResult> results;
    std::vector<corun::AppScore> scores;
    std::vector<corun::ParetoRow> pareto;
    {
        Scope campaign(tracer, "campaign");
        std::map<std::string, double> solo_memo;
        for (const corun::CorunGroup &group : groups)
            results.push_back(corunGroupTraced(tracer, arenas, options,
                                               group, solo_memo));
        Scope span(tracer, "corun.analysis");
        scores = corun::scoreApps(corun::buildMatrix(results));
        pareto = corun::paretoTable(results);
    }
    arenas.generateLive(tracer);

    finishCorun(out, options, results, scores, pareto);
    arenas.record(out);
    return out;
}

// ---------------------------------------------------------------------

void
printJson(const Outcome &out, const Tracer *tracer)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"first_op_ns\":" << out.firstOpNs;
    if (tracer != nullptr) {
        const double traced = tracer->seconds("campaign");
        os << ",\"campaign_s\":" << traced << ",\"sweep_s\":" << traced;
    } else {
        os << ",\"campaign_s\":" << double(out.endNs - out.firstOpNs) * 1e-9
           << ",\"sweep_s\":"
           << double(out.sweepEndNs - out.firstOpNs) * 1e-9;
    }
    os << ",\"operations\":" << out.operations
       << ",\"runtime_errored\":" << out.runtimeErrored
       << ",\"replayed\":" << out.replayed
       << ",\"spill_loads\":" << out.spillLoads
       << ",\"sim_ops\":" << out.simOps << ",\"model_sse\":" << out.modelSse
       << ",\"digest\":\"" << out.digest << "\",\"check_failures\":[";
    for (std::size_t i = 0; i < out.checkFailures.size(); ++i)
        os << (i ? "," : "") << "\"" << out.checkFailures[i] << "\"";
    os << "],\"counts\":{";
    bool first = true;
    for (const auto &[name, value] : out.counts) {
        os << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    os << "},\"host\":{\"hardware_concurrency\":"
       << std::thread::hardware_concurrency() << ",\"compiler\":\"g++ "
       << __VERSION__ << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"cxx_flags\":\"" << PERFBENCH_CXX_FLAGS << "\"}";
    if (tracer != nullptr) {
        os << ",\"spans\":[";
        const auto &spans = tracer->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            os << (i ? "," : "") << "[\"" << spans[i].name << "\","
               << spans[i].start << "," << spans[i].end << ","
               << spans[i].parent << "]";
        }
        os << "]";
    }
    os << "}\n";
    std::cout << os.str();
}

int
usage()
{
    std::cerr << "usage: spec17_perfbench --workload "
                 "characterize-ref|explore-cross|corun-partition "
                 "--dir DIR [--seed N] [--traced | --setup-only]\n";
    return 2;
}

int
run(int argc, char **argv)
{
    std::string workload, dir;
    std::uint64_t seed = suite::RunnerOptions().seed;
    bool traced = false;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--dir" && has_value)
            dir = argv[++i];
        else if (arg == "--seed" && has_value)
            seed = std::stoull(argv[++i]);
        else if (arg == "--traced")
            traced = true;
        else if (arg == "--setup-only")
            setup_only = true;
        else
            return usage();
    }
    if (traced && setup_only)
        return usage();
    if (dir.empty() || !std::filesystem::is_directory(dir)
        || !std::filesystem::is_empty(dir)) {
        std::cerr << "error: --dir must name an existing empty directory\n";
        return 2;
    }

    Tracer tracer;
    Outcome out;
    if (workload == "characterize-ref")
        out = traced ? characterizeTraced(seed, dir, tracer)
                     : characterizeUntraced(seed, dir, setup_only);
    else if (workload == "explore-cross")
        out = traced ? exploreTraced(seed, dir, tracer)
                     : exploreUntraced(seed, dir, setup_only);
    else if (workload == "corun-partition")
        out = traced ? corunTraced(seed, dir, tracer)
                     : corunUntraced(seed, dir, setup_only);
    else
        return usage();
    printJson(out, traced ? &tracer : nullptr);
    return 0;
}

} // namespace
} // namespace perfbench
} // namespace spec17

int
main(int argc, char **argv)
{
    try {
        return spec17::perfbench::run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
