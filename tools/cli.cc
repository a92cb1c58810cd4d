#include "tools/cli.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "core/characterizer.hh"
#include "util/logging.hh"
#include "core/phase.hh"
#include "core/subset.hh"
#include "corun/analysis.hh"
#include "corun/plan.hh"
#include "corun/runner.hh"
#include "corun/store.hh"
#include "explore/plan.hh"
#include "explore/runner.hh"
#include "sim/energy.hh"
#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "suite/journal.hh"
#include "suite/result_cache.hh"
#include "telemetry/progress.hh"
#include "telemetry/sampler.hh"
#include "telemetry/sink.hh"
#include "trace/file.hh"
#include "trace/synthetic.hh"
#include "util/atomic_file.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "workloads/builder.hh"

namespace spec17 {
namespace cli {

namespace {

using workloads::InputSize;
using workloads::SuiteGeneration;

/** A contained usage error: runCommand() reports it and exits 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throws a UsageError with the concatenated @p args. */
template <typename... Args>
[[noreturn]] void
usageError(Args &&...args)
{
    throw UsageError(detail::concatArgs(std::forward<Args>(args)...));
}

/** Maps --suite= to a generation; defaults to CPU2017. */
SuiteGeneration
generationOf(const CommandLine &command)
{
    const std::string suite = command.flag("suite", "cpu2017");
    if (suite != "cpu2017" && suite != "cpu2006")
        usageError("unknown --suite '", suite, "' (want cpu2017|cpu2006)");
    return suite == "cpu2017" ? SuiteGeneration::Cpu2017
                              : SuiteGeneration::Cpu2006;
}

/** Maps --size= to an input size; defaults to ref. */
InputSize
sizeOf(const CommandLine &command)
{
    const std::string size = command.flag("size", "ref");
    for (InputSize candidate : workloads::kAllInputSizes) {
        if (size == workloads::inputSizeName(candidate))
            return candidate;
    }
    usageError("unknown --size '", size, "' (want test|train|ref)");
}

/** The application named @p name in @p suite. */
const workloads::WorkloadProfile &
profileOf(const std::vector<workloads::WorkloadProfile> &suite,
          const std::string &name)
{
    for (const auto &candidate : suite) {
        if (candidate.name == name)
            return candidate;
    }
    usageError("no application named '", name, "' (try: spec17 list)");
}

/** The non-empty cells of a comma-separated flag value. */
std::vector<std::string>
listOf(const std::string &text)
{
    std::vector<std::string> cells = suite::splitCells(text, ',');
    cells.erase(std::remove(cells.begin(), cells.end(), ""), cells.end());
    return cells;
}

/** One `count<TAB>event` line per simulated perf event. */
void
renderCounters(const counters::CounterSet &counters, std::ostream &out)
{
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto event = static_cast<counters::PerfEvent>(e);
        out << "  " << fmtCount(counters.get(event)) << "\t"
            << counters::perfEventName(event) << "\n";
    }
}

suite::RunnerOptions
runnerOptionsOf(const CommandLine &command)
{
    suite::RunnerOptions options;
    options.sampleOps = command.flagUint("sample", 1'000'000);
    options.warmupOps = command.flagUint("warmup", 300'000);
    if (command.hasFlag("predictor"))
        options.system.branchPredictor = command.flag("predictor");
    if (command.hasFlag("prefetcher"))
        options.system.hierarchy.prefetcher =
            command.flag("prefetcher");
    // Microarchitecture-mechanism knobs (all config-key members; see
    // docs/uarch.md). runCommand() has already rejected unknown names
    // and contradictory combinations with contained errors.
    if (command.hasFlag("l2-prefetcher"))
        options.system.hierarchy.l2Prefetcher =
            command.flag("l2-prefetcher");
    if (command.hasFlag("way-predictor"))
        options.system.hierarchy.l1d.wayPredictor =
            sim::wayPredictorFromName(command.flag("way-predictor"));
    options.system.hierarchy.l1d.wayMispredictPenalty =
        static_cast<unsigned>(command.flagUint(
            "way-penalty",
            options.system.hierarchy.l1d.wayMispredictPenalty));
    options.system.hierarchy.streamDegree = static_cast<unsigned>(
        command.flagUint("stream-degree",
                         options.system.hierarchy.streamDegree));
    options.system.hierarchy.streamDistance = static_cast<unsigned>(
        command.flagUint("stream-distance",
                         options.system.hierarchy.streamDistance));
    options.system.tage.historyTables = static_cast<unsigned>(
        command.flagUint("tage-tables",
                         options.system.tage.historyTables));
    options.maxRetries =
        static_cast<unsigned>(command.flagUint("retries", 0));
    options.pairDeadlineOps = command.flagUint("pair-deadline", 0);
    options.pairDeadlineMs = command.flagUint("pair-deadline-ms", 0);
    options.retryBackoffMs = command.flagUint("retry-backoff-ms", 0);
    options.sampleIntervalOps =
        command.flagUint("sample-interval-ops", 0);
    options.jobs = static_cast<unsigned>(command.flagUint("jobs", 1));
    // Lane knobs (results-invariant; excluded from the config key).
    // runCommand() has already rejected an explicit --batch-ops=0.
    options.batchOps = command.flagUint("batch-ops", 0);
    options.unbatchedStepping = command.hasFlag("unbatched-stepping");
    return options;
}

/**
 * Builds the trace arena store for --trace-arena-mb (default 512 MiB;
 * 0 disables capture/replay), or nullptr when disabled. Only corun
 * and explore attach one: they replay each stream many times, while
 * a single-point run generates live. The caller owns the store and
 * must keep it alive for the runners' lifetime. Whether a store is
 * attached never changes result bytes (replay is draw-for-draw
 * identical to generation), so none of these knobs enter result-cache
 * config keys.
 */
std::unique_ptr<suite::TraceArenaStore>
arenaStoreOf(const CommandLine &command)
{
    const std::uint64_t budget_mb =
        command.flagUint("trace-arena-mb", 512);
    if (budget_mb == 0)
        return nullptr;
    return std::make_unique<suite::TraceArenaStore>(
        budget_mb * kMiB, command.flag("arena-spill-dir", ""));
}

/**
 * Builds the file sink for --telemetry-out, or nullptr when the flag
 * is absent. The caller owns the sink and must keep it alive for the
 * runner's lifetime.
 */
std::unique_ptr<telemetry::FileSink>
telemetrySinkOf(const CommandLine &command)
{
    if (!command.hasFlag("telemetry-out"))
        return nullptr;
    const std::string format = command.flag("telemetry-format", "csv");
    if (format != "csv" && format != "jsonl")
        usageError("unknown --telemetry-format '", format,
                   "' (want csv|jsonl)");
    if (command.flagUint("sample-interval-ops", 0) == 0) {
        warn("--telemetry-out without --sample-interval-ops "
             "produces no series");
    }
    return std::make_unique<telemetry::FileSink>(
        command.flag("telemetry-out"),
        format == "csv" ? telemetry::FileSink::Format::Csv
                        : telemetry::FileSink::Format::Jsonl);
}

/**
 * The campaign flags characterize, corun and explore share, parsed
 * once: the journal location, --resume, --shard and --progress.
 */
struct CampaignOptions
{
    /** --resume and --shard. */
    suite::CampaignOptions scope;
    /** Journal base path; empty with --no-cache. */
    std::string cachePath;
    /** sweep_progress reporter (shard-labelled); null without
     *  --progress. */
    std::unique_ptr<telemetry::ProgressReporter> progress;
};

CampaignOptions
campaignOptionsOf(const CommandLine &command)
{
    CampaignOptions campaign;
    if (!command.hasFlag("no-cache"))
        campaign.cachePath = suite::ResultCache::defaultPath();
    campaign.scope.resume = command.hasFlag("resume");
    if (command.hasFlag("shard")) {
        const auto shard = suite::ShardSpec::parse(command.flag("shard"));
        if (!shard)
            usageError("--shard wants K/N with 1 <= K <= N, got '",
                       command.flag("shard"), "'");
        campaign.scope.shard = *shard;
    }
    if (command.hasFlag("progress")) {
        telemetry::ProgressReporter::Options options;
        if (campaign.scope.shard.active())
            options.shardLabel = campaign.scope.shard.label();
        campaign.progress =
            std::make_unique<telemetry::ProgressReporter>(options);
    }
    return campaign;
}

/** Reports each completed pair of a sweep to @p progress. */
suite::ResultCache::Observer
pairProgress(telemetry::ProgressReporter &progress)
{
    return [&progress](const suite::PairResult &result,
                       std::size_t index, std::size_t total) {
        progress.onItemDone(
            result.name, index, total,
            result.counters.get(counters::PerfEvent::InstRetiredAny),
            result.attempts, result.errored, result.replayed);
    };
}

/**
 * When flag @p flag names a file, renders @p what through @p render
 * and commits it there atomically (writeFileAtomic), reporting
 * `wrote WHAT to PATH`. False, after reporting `error: cannot write
 * PATH: ...`, when the file could not be fully written.
 */
bool
exportToFlag(const CommandLine &command, const char *flag,
             const std::string &what,
             const std::function<void(std::ostream &)> &render,
             std::ostream &out, std::ostream &err)
{
    if (!command.hasFlag(flag))
        return true;
    const std::string path = command.flag(flag);
    std::ostringstream text;
    text.precision(17);
    render(text);
    std::string error;
    if (!writeFileAtomic(path, text.str(), &error)) {
        err << "error: cannot write " << path << ": " << error << "\n";
        return false;
    }
    out << "wrote " << what << " to " << path << "\n";
    return true;
}

/**
 * Tabulates pairs that errored or needed retries -- the equivalent of
 * the paper's "benchmarks excluded from aggregate analysis" note,
 * plus recovered transients so flaky sweeps are visible.
 */
void
renderFailureSummary(const std::vector<const suite::PairResult *>
                         &affected,
                     std::ostream &out)
{
    if (affected.empty())
        return;
    TextTable table({"pair", "status", "attempts", "category",
                     "ops done", "last failure"});
    for (const auto *result : affected) {
        const suite::FailureRecord *last =
            result->failures.empty() ? nullptr
                                     : &result->failures.back();
        table.addRow({result->name,
                      result->errored
                          ? (result->failures.empty()
                                 ? "errored-in-paper" : "errored")
                          : "recovered",
                      std::to_string(result->attempts),
                      last ? failureCategoryName(last->category) : "-",
                      last ? fmtCount(last->opsCompleted) : "-",
                      last ? last->message : "-"});
    }
    out << "\nfailure summary (" << affected.size()
        << " pair(s) errored or retried; errored pairs are excluded "
           "from aggregates):\n";
    table.render(out);
}

int
cmdConfig(const CommandLine &command, std::ostream &out, std::ostream &)
{
    out << runnerOptionsOf(command).system.describe();
    return 0;
}

int
cmdList(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const SuiteGeneration generation = generationOf(command);
    const InputSize size = sizeOf(command);
    const auto &suite = workloads::suiteOf(generation);

    TextTable table({"pair", "mini-suite", "language", "threads",
                     "instr (B)", "RSS", "status"});
    const auto pairs = enumeratePairs(suite, size);
    for (const auto &pair : pairs) {
        const auto &profile = *pair.profile;
        table.addRow({pair.displayName(),
                      workloads::suiteKindName(profile.suite),
                      profile.language,
                      std::to_string(profile.numThreads),
                      fmtDouble(profile.instrBillions(size), 1),
                      fmtBytes(profile.rssMiB(size) * double(kMiB)),
                      profile.isErrored(size, pair.inputIndex)
                          ? "errored-in-paper"
                          : "ok"});
    }
    table.render(out);
    out << pairs.size() << " application-input pairs\n";
    return 0;
}

int
cmdStat(const CommandLine &command, std::ostream &out, std::ostream &)
{
    if (command.positional.size() < 2)
        usageError("stat needs an application name (try: spec17 stat "
                   "505.mcf_r)");
    const SuiteGeneration generation = generationOf(command);
    const InputSize size = sizeOf(command);
    const auto &suite = workloads::suiteOf(generation);
    const std::string &name = command.positional[1];
    const workloads::WorkloadProfile *profile = &profileOf(suite, name);
    const unsigned input =
        static_cast<unsigned>(command.flagUint("input", 1)) - 1;
    const unsigned available =
        profile->numInputs[static_cast<std::size_t>(size)];
    if (input >= available)
        usageError(name, " has ", available, " ",
                   workloads::inputSizeName(size), " inputs");

    suite::RunnerOptions runner_options = runnerOptionsOf(command);
    const auto sink = telemetrySinkOf(command);
    runner_options.telemetrySink = sink.get();
    suite::SuiteRunner runner(runner_options);
    const auto result = runner.runPair({profile, size, input});

    out << "perf-style counters for " << result.name << " ("
        << workloads::inputSizeName(size) << "):\n";
    renderCounters(result.counters, out);
    const auto metrics = core::deriveMetrics(result);
    out << "\n  IPC " << fmtDouble(metrics.ipc, 3) << ", mispredict "
        << fmtDouble(metrics.mispredictPct, 2) << "%, L1/L2/L3 miss "
        << fmtDouble(metrics.l1MissPct, 2) << "/"
        << fmtDouble(metrics.l2MissPct, 2) << "/"
        << fmtDouble(metrics.l3MissPct, 2) << "%\n";
    const auto energy = sim::computeEnergy(
        result.counters,
        double(result.counters.get(
            counters::PerfEvent::CpuClkUnhaltedRefTsc)));
    out << "  energy (model): "
        << fmtDouble(energy.epiNj(double(result.counters.get(
               counters::PerfEvent::InstRetiredAny))), 2)
        << " nJ/instr, DRAM share "
        << fmtDouble(100.0 * energy.dramJ / energy.totalJ(), 1)
        << "%\n";
    out << "  estimated native run: " << fmtDouble(metrics.seconds, 1)
        << " s for " << fmtDouble(metrics.instrBillions, 1)
        << " billion instructions\n";
    if (result.series) {
        // The first phase-behaviour signal: how much interval IPC
        // wobbles over the measured window.
        out << "  telemetry: " << result.series->numIntervals()
            << " interval(s) of "
            << fmtCount(result.series->intervalOps)
            << " ops, interval IPC CoV "
            << fmtDouble(telemetry::coefficientOfVariation(
                             *result.series, "ipc"),
                         3)
            << "\n";
        if (sink)
            out << "  telemetry series written to "
                << sink->pathFor(result.name) << "\n";
    }
    return 0;
}

int
cmdEvents(const CommandLine &, std::ostream &out, std::ostream &)
{
    // The paper generates its candidate counter list with
    // `perf list`; this is the simulated equivalent.
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        out << counters::perfEventName(
            static_cast<counters::PerfEvent>(e))
            << "\n";
    }
    return 0;
}

int
cmdValidate(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const SuiteGeneration generation = generationOf(command);
    const auto &suite = workloads::suiteOf(generation);
    suite::RunnerOptions options = runnerOptionsOf(command);
    // Calibration checks need less precision than the study runs.
    options.sampleOps = command.flagUint("sample", 400'000);
    options.warmupOps = command.flagUint("warmup", 150'000);
    suite::SuiteRunner runner(options);

    const double tolerance_pp =
        double(command.flagUint("tolerance", 12));
    TextTable table({"application", "L1m% tgt/got", "L2m% tgt/got",
                     "L3m% tgt/got", "misp% tgt/got", "worst dev"});
    int failures = 0;
    for (const auto &profile : suite) {
        const auto result = runner.runPair(
            {&profile, InputSize::Ref, 0});
        const auto metrics = core::deriveMetrics(result);
        const double targets[4] = {
            100.0 * profile.memory.l1MissRate,
            100.0 * profile.memory.l2MissRate,
            100.0 * profile.memory.l3MissRate,
            100.0 * profile.branches.mispredictRate,
        };
        const double got[4] = {metrics.l1MissPct, metrics.l2MissPct,
                               metrics.l3MissPct,
                               metrics.mispredictPct};
        double worst = 0.0;
        for (int i = 0; i < 4; ++i)
            worst = std::max(worst, std::abs(got[i] - targets[i]));
        failures += worst > tolerance_pp;
        auto cell = [&](int i) {
            return fmtDouble(targets[i], 1) + " / "
                + fmtDouble(got[i], 1);
        };
        table.addRow({profile.name, cell(0), cell(1), cell(2),
                      cell(3),
                      fmtDouble(worst, 1)
                          + (worst > tolerance_pp ? " !" : "")});
    }
    table.render(out);
    out << failures << " of " << suite.size()
        << " applications deviate more than " << tolerance_pp
        << "pp from their profile targets\n";
    return command.hasFlag("strict") && failures > 0 ? 1 : 0;
}

int
cmdRecord(const CommandLine &command, std::ostream &out, std::ostream &)
{
    if (command.positional.size() < 2)
        usageError("record needs an application name");
    const InputSize size = sizeOf(command);
    const std::string &name = command.positional[1];
    const workloads::WorkloadProfile *profile =
        &profileOf(workloads::cpu2017Suite(), name);
    const std::string path =
        command.flag("out", name + "." + inputSizeName(size) + ".s17t");
    workloads::BuildOptions build;
    build.sampleOps = command.flagUint("sample", 1'000'000);
    trace::SyntheticTraceGenerator source(
        workloads::buildTraceParams({profile, size, 0}, build, 0));
    const std::uint64_t written = trace::writeTrace(path, source);
    out << "wrote " << fmtCount(written) << " micro-ops to " << path
        << "\n";
    return 0;
}

int
cmdReplay(const CommandLine &command, std::ostream &out, std::ostream &)
{
    if (command.positional.size() < 2)
        usageError("replay needs a trace file path");
    trace::FileTrace source(command.positional[1]);
    sim::CpuSimulator simulator(runnerOptionsOf(command).system);
    const sim::SimResult result = simulator.run(source);

    out << "replayed " << fmtCount(source.size())
        << " micro-ops from " << command.positional[1] << "\n";
    renderCounters(result.counters, out);
    out << "\n  IPC " << fmtDouble(result.ipc(), 3) << " over "
        << fmtDouble(result.cycles, 0) << " cycles\n";
    return 0;
}

int
cmdCharacterize(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const SuiteGeneration generation = generationOf(command);
    const InputSize size = sizeOf(command);

    core::CharacterizerOptions options;
    options.runner = runnerOptionsOf(command);
    const auto sink = telemetrySinkOf(command);
    options.runner.telemetrySink = sink.get();
    const CampaignOptions campaign = campaignOptionsOf(command);
    static_cast<suite::CampaignOptions &>(options) = campaign.scope;
    options.cachePath = campaign.cachePath;
    if (campaign.progress)
        options.pairObserver = pairProgress(*campaign.progress);
    core::Characterizer session(options);
    const std::vector<core::Metrics> metrics =
        session.metrics(generation, size);

    // With sampling enabled, surface the per-pair interval-IPC
    // coefficient of variation (series exist only for pairs actually
    // simulated this session; cache replays show "-").
    const bool sampled = options.runner.sampleIntervalOps > 0;
    std::map<std::string, double> ipc_cov;
    if (sampled) {
        for (const auto &result : session.results(generation, size)) {
            if (result.series) {
                ipc_cov[result.name] =
                    telemetry::coefficientOfVariation(*result.series,
                                                      "ipc");
            }
        }
    }

    std::vector<std::string> header = {"pair", "IPC", "ld%", "st%",
                                       "br%", "L1m%", "L2m%", "L3m%",
                                       "misp%", "RSS GiB", "time s"};
    if (sampled)
        header.push_back("IPC CoV");
    TextTable table(header);
    for (const auto &m : metrics) {
        if (m.errored)
            continue;
        std::vector<std::string> row = {m.name, fmtDouble(m.ipc, 3),
                      fmtDouble(m.loadPct, 2),
                      fmtDouble(m.storePct, 2),
                      fmtDouble(m.branchPct, 2),
                      fmtDouble(m.l1MissPct, 2),
                      fmtDouble(m.l2MissPct, 2),
                      fmtDouble(m.l3MissPct, 2),
                      fmtDouble(m.mispredictPct, 2),
                      fmtDouble(m.rssGiB, 3),
                      fmtDouble(m.seconds, 1)};
        if (sampled) {
            row.push_back(ipc_cov.count(m.name)
                              ? fmtDouble(ipc_cov[m.name], 3)
                              : "-");
        }
        table.addRow(row);
    }
    if (command.hasFlag("csv")) {
        table.renderCsv(out);
    } else {
        table.render(out);
        renderFailureSummary(session.failures(generation, size), out);
    }
    return 0;
}

/** Demo subset for co-run sweeps when --apps is absent: two memory
 *  bullies (mcf, lbm) against two cache-light apps (leela,
 *  exchange2), the smallest set that shows the full sensitivity/
 *  aggressiveness spread. */
const char *const kCorunDemoApps[] = {"505.mcf_r", "519.lbm_r",
                                      "541.leela_r", "548.exchange2_r"};

int
cmdCorun(const CommandLine &command, std::ostream &out,
         std::ostream &err)
{
    const InputSize size = sizeOf(command);
    const auto &suite = workloads::cpu2017Suite();

    // Resolve the application subset with contained errors: a typo'd
    // or threaded (speed) app is a usage error, not a panic.
    const std::vector<std::string> apps = command.hasFlag("apps")
        ? listOf(command.flag("apps"))
        : std::vector<std::string>(std::begin(kCorunDemoApps),
                                   std::end(kCorunDemoApps));
    for (const std::string &name : apps) {
        const unsigned threads = profileOf(suite, name).numThreads;
        if (threads != 1)
            usageError(name, " runs ", threads,
                       " threads; co-run groups take single-threaded "
                       "(rate) applications");
    }

    const suite::RunnerOptions runner_options = runnerOptionsOf(command);
    corun::CorunOptions options;
    options.sampleOps = command.flagUint("sample", 300'000);
    options.warmupOps = command.flagUint("warmup", 100'000);
    options.chunkOps = command.flagUint("corun-chunk", 10'000);
    options.jobs = runner_options.jobs;
    options.size = size;
    options.system = runner_options.system;
    if (options.chunkOps == 0)
        usageError("--corun-chunk must be positive");
    const auto arena_store = arenaStoreOf(command);
    options.arenaStore = arena_store.get();

    corun::PlanOptions plan;
    plan.apps = apps;
    plan.groupSize = command.hasFlag("quartets") ? 4 : 2;
    plan.includeSelf = !command.hasFlag("no-self");
    plan.partitionSweep = command.hasFlag("partition");
    plan.l3Ways = options.system.hierarchy.l3.assoc;
    if (plan.partitionSweep && plan.groupSize != 2)
        usageError("--partition sweeps pairs, not quartets");
    if (apps.size() < (plan.groupSize == 2 && plan.includeSelf
                           ? 1u
                           : plan.groupSize))
        usageError(apps.size(), " application(s) cannot form groups of ",
                   plan.groupSize);
    const std::vector<corun::CorunGroup> groups =
        corun::planGroups(suite, plan);

    const CampaignOptions campaign = campaignOptionsOf(command);
    corun::CorunRunner runner(options);
    corun::CorunStore store(campaign.cachePath, campaign.scope.resume,
                            campaign.scope.shard);
    corun::CorunRunner::GroupObserver observer;
    if (campaign.progress) {
        observer = [&progress = *campaign.progress](
                       const corun::CorunResult &result,
                       std::size_t index, std::size_t total) {
            std::uint64_t ops = 0;
            for (const auto &member : result.members)
                ops += member.instructions;
            progress.onItemDone(result.name, index, total, ops, 1,
                                false, result.replayed);
        };
    }
    const std::vector<corun::CorunResult> results =
        store.runOrLoad(runner, groups, observer);

    const auto group_records = [&](std::ostream &jsonl) {
        for (const auto &result : results) {
            jsonl << "{\"group\":\"" << result.name << "\","
                  << "\"partition\":";
            if (result.masks.empty())
                jsonl << "null";
            else
                jsonl << "\"" << corun::maskSetLabel(result.masks)
                      << "\"";
            jsonl << ",\"throughput\":" << result.throughput()
                  << ",\"worst_slowdown\":" << result.worstSlowdown()
                  << ",\"members\":[";
            for (std::size_t c = 0; c < result.members.size(); ++c) {
                const auto &m = result.members[c];
                jsonl << (c == 0 ? "" : ",") << "{\"app\":\"" << m.name
                      << "\",\"slowdown\":" << m.slowdown()
                      << ",\"cycles\":" << m.cycles
                      << ",\"solo_cycles\":" << m.soloCycles
                      << ",\"instructions\":" << m.instructions
                      << ",\"l3_hits\":" << m.l3Hits
                      << ",\"l3_misses\":" << m.l3Misses
                      << ",\"evictions_inflicted\":"
                      << m.evictionsInflicted
                      << ",\"evictions_suffered\":"
                      << m.evictionsSuffered
                      << ",\"occupancy_lines\":" << m.occupancyLines
                      << "}";
            }
            jsonl << "]}\n";
        }
    };
    if (!exportToFlag(command, "export-jsonl",
                      std::to_string(results.size()) + " group record(s)",
                      group_records, out, err))
        return 1;

    // Member-level breakdown of the free-for-all groups (partitioned
    // variants feed the Pareto table below instead).
    TextTable member_table({"group", "member", "slowdown", "IPC",
                            "L3 miss%", "ev. suffered",
                            "ev. inflicted", "L3 lines"});
    for (const auto &result : results) {
        if (!result.masks.empty())
            continue;
        for (const auto &m : result.members) {
            const std::uint64_t l3_acc = m.l3Hits + m.l3Misses;
            member_table.addRow(
                {result.name, m.name, fmtDouble(m.slowdown(), 3),
                 fmtDouble(m.ipc(), 3),
                 l3_acc > 0 ? fmtDouble(100.0 * double(m.l3Misses)
                                            / double(l3_acc),
                                        1)
                            : "-",
                 fmtCount(m.evictionsSuffered),
                 fmtCount(m.evictionsInflicted),
                 fmtCount(m.occupancyLines)});
        }
    }
    if (command.hasFlag("csv")) {
        member_table.renderCsv(out);
        return 0;
    }
    out << "co-run interference (" << results.size() << " group(s), "
        << workloads::inputSizeName(size) << "):\n";
    member_table.render(out);

    const corun::SlowdownMatrix matrix = corun::buildMatrix(results);
    if (!matrix.apps.empty() && plan.groupSize == 2) {
        std::vector<std::string> header = {"victim \\ aggressor"};
        header.insert(header.end(), matrix.apps.begin(),
                      matrix.apps.end());
        TextTable matrix_table(header);
        for (std::size_t v = 0; v < matrix.apps.size(); ++v) {
            std::vector<std::string> row = {matrix.apps[v]};
            for (std::size_t a = 0; a < matrix.apps.size(); ++a)
                row.push_back(matrix.slowdown[v][a] > 0.0
                                  ? fmtDouble(matrix.slowdown[v][a], 3)
                                  : "-");
            matrix_table.addRow(row);
        }
        out << "\nslowdown matrix (co-run cycles / solo cycles):\n";
        matrix_table.render(out);

        std::vector<corun::AppScore> scores =
            corun::scoreApps(matrix);
        std::sort(scores.begin(), scores.end(),
                  [](const corun::AppScore &a,
                     const corun::AppScore &b) {
                      return a.sensitivity > b.sensitivity;
                  });
        TextTable score_table(
            {"application", "sensitivity", "aggressiveness"});
        for (const auto &score : scores)
            score_table.addRow({score.app,
                                fmtDouble(score.sensitivity, 3),
                                fmtDouble(score.aggressiveness, 3)});
        out << "\ninterference scores (mean slowdown suffered / "
               "inflicted):\n";
        score_table.render(out);
    }

    if (plan.partitionSweep) {
        const std::vector<corun::ParetoRow> pareto =
            corun::paretoTable(results);
        TextTable pareto_table({"pair", "partition", "throughput",
                                "worst slowdown", "Pareto"});
        for (const auto &row : pareto)
            pareto_table.addRow({row.pair, row.partition,
                                 fmtDouble(row.throughput, 3),
                                 fmtDouble(row.worstSlowdown, 3),
                                 row.dominated ? "" : "*"});
        out << "\nCAT way-partition Pareto sweep (* = "
               "non-dominated within its pair):\n";
        pareto_table.render(out);
    }
    return 0;
}

/** Renders the explorer's Pareto table into @p table. */
void
renderExploreTable(const std::vector<explore::PointResult> &results,
                   TextTable &table)
{
    for (const auto &r : results) {
        table.addRow({r.point.axis, r.point.label,
                      fmtDouble(r.sse, 3),
                      fmtDouble(r.point.costBits, 0),
                      fmtDouble(r.meanIpc, 3),
                      std::to_string(r.pairs),
                      std::to_string(r.errored),
                      r.dominated ? "" : (r.knee ? "knee" : "*")});
    }
}

int
cmdExplore(const CommandLine &command, std::ostream &out,
           std::ostream &err)
{
    // Plan-shape flags first: --axis sweeps one mechanism axis,
    // --multi-axis crosses (or descends) two or more axes including
    // the geometry grids. Contradictions are contained exit-2 usage
    // errors, caught before any simulation starts.
    const std::string axis = command.flag("axis");
    const std::vector<std::string> multi =
        listOf(command.flag("multi-axis"));
    const std::string mode = command.flag("multi-axis-mode", "product");
    if (command.hasFlag("multi-axis-mode")
        && !command.hasFlag("multi-axis"))
        usageError("--multi-axis-mode without --multi-axis has nothing "
                   "to apply to");
    if (mode != "product" && mode != "descent")
        usageError("unknown --multi-axis-mode '", mode,
                   "' (want product|descent)");
    if (command.hasFlag("axis") && command.hasFlag("multi-axis"))
        usageError("--axis is contradictory with --multi-axis (one "
                   "sweep shape per run)");
    std::string axis_names;
    for (const std::string &name : explore::axisNames())
        axis_names += " " + name;
    if (command.hasFlag("multi-axis")) {
        if (multi.size() < 2)
            usageError("--multi-axis wants two or more comma-separated "
                       "axes (use --axis for one)");
        for (const std::string &name : explore::geometryAxisNames())
            axis_names += " " + name;
        for (std::size_t i = 0; i < multi.size(); ++i) {
            for (std::size_t j = i + 1; j < multi.size(); ++j) {
                if (multi[i] == multi[j])
                    usageError("--multi-axis repeats axis '", multi[i],
                               "'");
            }
            if (!explore::isAxis(multi[i])
                && !explore::isGeometryAxis(multi[i]))
                usageError("unknown --multi-axis axis '", multi[i],
                           "' (want one of", axis_names, ")");
        }
    } else if (!explore::isAxis(axis)) {
        usageError("explore needs --axis=AXIS with AXIS one of",
                   axis_names,
                   axis.empty() ? "" : "; got '" + axis + "'");
    }
    const SuiteGeneration generation = generationOf(command);
    const InputSize size = sizeOf(command);

    explore::ExploreOptions options;
    options.runner = runnerOptionsOf(command);
    // Exploration trades per-pair precision for breadth, like
    // validate: the axis deltas dominate sampling noise well before
    // the study-run sample sizes.
    options.runner.sampleOps = command.flagUint("sample", 400'000);
    options.runner.warmupOps = command.flagUint("warmup", 150'000);
    const auto arena_store = arenaStoreOf(command);
    options.runner.arenaStore = arena_store.get();
    options.generation = generation;
    options.size = size;
    // A geometry grid over a mechanism the configured base disables
    // would score identical points: contained usage error, with the
    // planner's own explanation.
    for (const std::string &name : multi) {
        const std::string plan_error =
            explore::axisPlanError(name, options.runner.system);
        if (!plan_error.empty())
            usageError(plan_error);
    }
    const CampaignOptions campaign = campaignOptionsOf(command);
    static_cast<suite::CampaignOptions &>(options) = campaign.scope;
    options.cachePath = campaign.cachePath;
    if (campaign.progress)
        options.pairObserver = pairProgress(*campaign.progress);

    explore::ExploreRunner runner(options);
    std::vector<explore::PointResult> results;
    std::vector<explore::DescentStep> descent;
    if (multi.empty()) {
        results = runner.runAxis(axis);
    } else if (mode == "product") {
        results = runner.runCross(multi);
    } else {
        descent = runner.runDescent(multi);
        // Flatten for the shared renderers; each stage keeps its own
        // Pareto marks (the axis column tells stages apart).
        for (const auto &step : descent)
            results.insert(results.end(), step.points.begin(),
                           step.points.end());
    }

    const auto point_records = [&](std::ostream &jsonl) {
        for (const auto &r : results) {
            jsonl << "{\"axis\":\"" << r.point.axis << "\","
                  << "\"point\":\"" << r.point.label << "\","
                  << "\"sse\":" << r.sse
                  << ",\"cost_bits\":" << r.point.costBits
                  << ",\"mean_ipc\":" << r.meanIpc
                  << ",\"pairs\":" << r.pairs
                  << ",\"errored\":" << r.errored << ",\"dominated\":"
                  << (r.dominated ? "true" : "false")
                  << ",\"knee\":" << (r.knee ? "true" : "false")
                  << "}\n";
        }
    };
    if (!exportToFlag(command, "export-jsonl",
                      std::to_string(results.size()) + " point record(s)",
                      point_records, out, err))
        return 1;

    TextTable table({"axis", "point", "SSE (pp^2)", "cost (bits)",
                     "mean IPC", "pairs", "errored", "Pareto"});
    renderExploreTable(results, table);
    if (!exportToFlag(
            command, "explore-out", "Pareto table",
            [&table](std::ostream &csv) { table.renderCsv(csv); }, out,
            err))
        return 1;
    if (command.hasFlag("csv")) {
        table.renderCsv(out);
        return 0;
    }
    std::string sweep_label = axis;
    if (!multi.empty()) {
        sweep_label.clear();
        for (std::size_t i = 0; i < multi.size(); ++i)
            sweep_label += (i == 0 ? "" : "+") + multi[i];
        sweep_label +=
            mode == "descent" ? " (coordinate descent)" : " (cross)";
    }
    out << "design-space sweep of axis '" << sweep_label << "' ("
        << results.size() << " point(s), "
        << workloads::inputSizeName(size)
        << "; * = Pareto-optimal, knee = selected trade-off):\n";
    table.render(out);
    if (descent.empty()) {
        for (const auto &r : results) {
            if (r.knee) {
                out << "knee: " << r.point.label << " (SSE "
                    << fmtDouble(r.sse, 3) << ", "
                    << fmtDouble(r.point.costBits, 0) << " bits)\n";
            }
        }
    } else {
        for (std::size_t k = 0; k < descent.size(); ++k) {
            const explore::PointResult &pick =
                descent[k].points[descent[k].chosen];
            out << "descent step " << k + 1 << " (" << descent[k].axis
                << "): " << pick.point.label << " (SSE "
                << fmtDouble(pick.sse, 3) << ", "
                << fmtDouble(pick.point.costBits, 0) << " bits)\n";
        }
    }
    return 0;
}

int
cmdMerge(const CommandLine &command, std::ostream &out,
         std::ostream &err)
{
    if (command.positional.size() < 2)
        usageError("merge needs shard journal files (try: spec17 merge "
                   "--out=merged.csv shard1.csv shard2.csv ...)");
    if (!command.hasFlag("out"))
        usageError("merge needs --out=FILE for the merged journal");
    const std::vector<std::string> paths(
        command.positional.begin() + 1, command.positional.end());
    const auto outcome = suite::mergeJournals(
        paths, command.flag("out"), command.hasFlag("allow-partial"));
    if (!outcome.ok) {
        err << "error: " << outcome.error << "\n";
        return 1;
    }
    out << "merged " << outcome.shardsMerged << " shard(s), "
        << outcome.recordsWritten << " record(s) -> "
        << command.flag("out") << "\n";
    if (outcome.recordsDropped > 0)
        out << "dropped " << outcome.recordsDropped
            << " record(s) after the first gap (--allow-partial)\n";
    return 0;
}

int
cmdFsck(const CommandLine &command, std::ostream &out, std::ostream &)
{
    if (command.positional.size() < 2)
        usageError("fsck needs journal files (try: spec17 fsck "
                   "results.cpu2017.ref.csv)");
    const bool repair = command.hasFlag("repair");
    int bad = 0;
    for (std::size_t i = 1; i < command.positional.size(); ++i) {
        const std::string &path = command.positional[i];
        const auto scan = suite::scanJournal(path);
        if (!scan.fileOk) {
            out << path << ": cannot read\n";
            ++bad;
            continue;
        }
        if (!scan.headerOk) {
            // No trusted campaign header means no trusted content:
            // nothing --repair could keep.
            out << path << ": UNREPAIRABLE (" << scan.headerError
                << ")\n";
            ++bad;
            continue;
        }
        out << path << ": v" << scan.header.version << " config "
            << scan.header.configFingerprint << " shard "
            << scan.header.shardLabel() << ", " << scan.records.size()
            << " intact record(s)";
        if (scan.corrupt) {
            out << "; CORRUPT at record " << scan.corruptRecord
                << " (" << scan.corruptReason << ")";
            if (repair) {
                std::string error;
                if (suite::repairJournal(path, error)) {
                    out << "; repaired (damaged suffix dropped)";
                } else {
                    out << "; repair FAILED: " << error;
                    ++bad;
                }
            } else {
                ++bad;
            }
        }
        out << "\n";
    }
    return bad > 0 ? 1 : 0;
}

int
cmdSubset(const CommandLine &command, std::ostream &out, std::ostream &)
{
    const std::string which = command.flag("set", "rate");
    if (which != "rate" && which != "speed")
        usageError("--set must be rate or speed");
    core::CharacterizerOptions options;
    options.runner = runnerOptionsOf(command);
    if (command.hasFlag("no-cache"))
        options.cachePath.clear();
    core::Characterizer session(options);
    const auto analysis = session.redundancyFor(which == "speed");
    const auto subset = core::suggestSubset(
        analysis,
        static_cast<std::size_t>(command.flagUint("clusters", 0)));

    out << "suggested " << which << " subset (" << subset.numClusters()
        << " of " << analysis.pairNames.size() << " pairs, "
        << fmtDouble(subset.savingPct(), 1) << "% time saved):\n";
    for (const auto &rep : subset.representatives) {
        out << "  " << rep.name << "  ("
            << fmtDouble(rep.seconds, 1) << " s)\n";
    }
    return 0;
}

int
cmdPhases(const CommandLine &command, std::ostream &out, std::ostream &)
{
    if (command.positional.size() < 2)
        usageError("phases needs an application name");
    const InputSize size = sizeOf(command);
    const std::string &name = command.positional[1];
    const workloads::WorkloadProfile *profile =
        &profileOf(workloads::cpu2017Suite(), name);

    const auto runner_options = runnerOptionsOf(command);
    workloads::BuildOptions build;
    build.sampleOps = runner_options.sampleOps * 4;
    trace::SyntheticTraceGenerator source(
        workloads::buildTraceParams({profile, size, 0}, build, 0));

    core::PhaseOptions phase_options;
    phase_options.intervalOps =
        std::max<std::uint64_t>(20'000, build.sampleOps / 20);
    phase_options.warmupOps = phase_options.intervalOps;
    const auto analysis = core::analyzePhases(
        source, runner_options.system, phase_options);

    out << "timeline: ";
    for (std::size_t label : analysis.labels)
        out << static_cast<char>('A' + label);
    out << "\n";
    for (const auto &phase : analysis.phases) {
        out << "phase " << static_cast<char>('A' + phase.id) << ": "
            << fmtDouble(100.0 * phase.weight, 1) << "% of the run, "
            << "mean IPC " << fmtDouble(phase.meanIpc, 3)
            << ", simulation point at interval "
            << phase.representative << "\n";
    }
    out << "sampled-IPC estimate " <<
        fmtDouble(analysis.sampledIpcEstimate(), 3) << " vs full "
        << fmtDouble(analysis.fullIpc(), 3) << "\n";
    return 0;
}

/**
 * Rejects unknown flags and contradictory or out-of-range values
 * before any verb runs, so they are contained usage errors instead of
 * library-level fatal checks inside a simulator.
 */
void
validateFlags(const CommandLine &command)
{
    // A typo'd flag -- or one the verb never reads -- is a loud
    // error, not a silently ignored no-op.
    for (const auto &[name, value] : command.flags) {
        const auto spec = std::find_if(
            flagTable().begin(), flagTable().end(),
            [&name](const FlagSpec &flag) { return name == flag.name; });
        if (spec == flagTable().end())
            usageError("unknown flag '--", name,
                       "' (see spec17 --help for the accepted flags)");
        const std::string verbs = std::string(", ") + spec->verbs + ",";
        if (*spec->verbs != '\0'
            && verbs.find(", " + command.command + ",") == std::string::npos)
            usageError("--", name, " does not apply to ", command.command,
                       " (only to ", spec->verbs, ")");
    }
    // The runners refuse samples too short to be meaningful.
    if (command.hasFlag("sample")
        && command.flagUint("sample", 0) < suite::kMinSampleOps)
        usageError("--sample must be at least ", suite::kMinSampleOps,
                   " micro-ops");
    // An explicit zero batch size would silently run some other size.
    if (command.hasFlag("batch-ops")
        && command.flagUint("batch-ops", 0) == 0)
        usageError("--batch-ops must be positive");
    // Spilling exists to persist captured arenas; with capture/replay
    // disabled there is nothing to spill.
    if (command.hasFlag("arena-spill-dir")
        && command.flagUint("trace-arena-mb", 512) == 0)
        usageError("--arena-spill-dir is contradictory with "
                   "--trace-arena-mb=0 (trace capture/replay disabled, "
                   "nothing to spill)");
    if (command.hasFlag("way-predictor")) {
        const std::string name = command.flag("way-predictor");
        if (name != "none" && name != "mru" && name != "utag")
            usageError("unknown --way-predictor '", name,
                       "' (want none|mru|utag)");
        if (name != "none"
            && runnerOptionsOf(command).system.hierarchy.l1d.assoc < 2)
            usageError("--way-predictor=", name,
                       " is contradictory with a direct-mapped L1D "
                       "(nothing to predict)");
    }
    if (command.hasFlag("tage-tables")
        && command.flagUint("tage-tables", 0) == 0)
        usageError("--tage-tables=0 is contradictory (TAGE needs at "
                   "least one tagged history table)");
    if (command.hasFlag("stream-degree")
        && command.flagUint("stream-degree", 0) == 0)
        usageError("--stream-degree must be positive");
    const std::uint64_t degree = command.flagUint("stream-degree", 4);
    const std::uint64_t distance = command.flagUint("stream-distance", 16);
    if (degree > distance)
        usageError("--stream-degree=", degree,
                   " is contradictory with --stream-distance=", distance,
                   " (a burst cannot overshoot the run-ahead window)");
}

/** Runs the verb @p command names. */
int
dispatch(const CommandLine &command, std::ostream &out,
         std::ostream &err)
{
    using Verb = int (*)(const CommandLine &, std::ostream &,
                         std::ostream &);
    static const std::map<std::string, Verb> verbs = {
        {"config", cmdConfig},     {"list", cmdList},
        {"stat", cmdStat},         {"characterize", cmdCharacterize},
        {"corun", cmdCorun},       {"explore", cmdExplore},
        {"subset", cmdSubset},     {"phases", cmdPhases},
        {"record", cmdRecord},     {"replay", cmdReplay},
        {"validate", cmdValidate}, {"events", cmdEvents},
        {"merge", cmdMerge},       {"fsck", cmdFsck},
    };
    const auto verb = verbs.find(command.command);
    if (verb != verbs.end())
        return verb->second(command, out, err);
    err << "error: unknown command '" << command.command << "'\n\n"
        << usage();
    return 2;
}

} // namespace

std::string
CommandLine::flag(const std::string &key,
                  const std::string &fallback) const
{
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
}

std::uint64_t
CommandLine::flagUint(const std::string &key,
                      std::uint64_t fallback) const
{
    const auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    // A whole cell of decimal digits only: "5000x", "1e6" and "-1"
    // are typos, not 5000, 1 and 2^64-1.
    const auto value = suite::parseUintCell(it->second);
    if (!value)
        SPEC17_FATAL("flag --", key, " wants a number, got '",
                     it->second, "'");
    return *value;
}

bool
CommandLine::hasFlag(const std::string &key) const
{
    return flags.count(key) > 0;
}

CommandLine
parseCommandLine(int argc, const char *const *argv)
{
    CommandLine command;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                command.flags[arg.substr(2)] = "";
            else
                command.flags[arg.substr(2, eq - 2)] =
                    arg.substr(eq + 1);
        } else {
            command.positional.push_back(arg);
        }
    }
    if (!command.positional.empty())
        command.command = command.positional.front();
    return command;
}

const std::vector<FlagSpec> &
flagTable()
{
    // Single source of truth for the accepted flag set: usage()
    // renders this table and runCommand() validates against it. A
    // group renders once per contiguous run of its label, and lists
    // the verbs whose code reads its flags ("" = every verb): the
    // SuiteRunner verbs read the whole RunnerOptions, corun only its
    // jobs and system, and the system knobs reach every
    // runnerOptionsOf() caller.
    static const char *const kPairRunners =
        "stat, validate, characterize, subset, explore";
    static const FlagGroup kCommon{"common flags", ""};
    static const FlagGroup kSuite{
        "suite selection", "list, stat, validate, characterize, explore"};
    static const FlagGroup kSize{
        "input size",
        "list, stat, record, characterize, corun, explore, phases"};
    static const FlagGroup kInput{"single pair", "stat"};
    static const FlagGroup kSample{
        "sample length",
        "stat, validate, record, characterize, subset, corun, explore, "
        "phases"};
    static const FlagGroup kWarmup{
        "warmup length",
        "stat, validate, characterize, subset, corun, explore"};
    static const FlagGroup kTable{"table output",
                                  "characterize, corun, explore"};
    static const FlagGroup kCache{"result cache",
                                  "characterize, subset, corun, explore"};
    static const FlagGroup kOut{"output file", "record, merge"};
    static const FlagGroup kSubset{"subset selection", "subset"};
    static const FlagGroup kValidate{"profile validation", "validate"};
    static const FlagGroup kFaults{"fault isolation", kPairRunners};
    static const FlagGroup kTelemetry{"telemetry", "stat, characterize"};
    static const FlagGroup kCampaign{"campaign flags",
                                     "characterize, corun, explore"};
    static const FlagGroup kParallel{
        "parallel execution", "characterize, subset, corun, explore"};
    static const FlagGroup kExport{"record export", "corun, explore"};
    static const FlagGroup kLanes{"batched hot path", kPairRunners};
    static const FlagGroup kMerge{"sharded campaigns", "merge"};
    static const FlagGroup kFsck{"journal repair", "fsck"};
    static const FlagGroup kCorun{"co-run interference", "corun"};
    static const FlagGroup kUarch{
        "uarch mechanisms",
        "config, stat, validate, replay, characterize, subset, corun, "
        "explore, phases"};
    static const FlagGroup kExplore{"design-space exploration",
                                    "explore"};
    static const FlagGroup kArena{"trace capture/replay",
                                  "corun, explore"};
    static const std::vector<FlagSpec> table = {
        {"help", "", "print this help", kCommon},
        {"suite", "cpu2017|cpu2006", "which suite (default cpu2017)",
         kSuite},
        {"size", "test|train|ref", "input size (default ref)", kSize},
        {"input", "N", "1-based input index (default 1)", kInput},
        {"sample", "N",
         "simulated micro-ops measured per pair (at least 1000)", kSample},
        {"warmup", "N", "simulated micro-ops warmed before measuring",
         kWarmup},
        {"csv", "", "print the result table as CSV", kTable},
        {"no-cache", "", "ignore the result cache", kCache},
        {"out", "FILE", "trace file (record) or merged journal (merge)",
         kOut},
        {"set", "rate|speed", "pair set to subset (default rate)",
         kSubset},
        {"clusters", "N", "force the subset size", kSubset},
        {"tolerance", "N", "allowed deviation in pp (default 12)",
         kValidate},
        {"strict", "", "nonzero exit on deviations", kValidate},
        {"retries", "N", "retry failed pairs up to N times", kFaults},
        {"retry-backoff-ms", "N",
         "base backoff between retries (doubles per attempt)", kFaults},
        {"pair-deadline", "N",
         "per-pair micro-op budget (deterministic watchdog)", kFaults},
        {"pair-deadline-ms", "N", "per-pair wall-clock budget", kFaults},
        {"sample-interval-ops", "N",
         "per-pair interval series every N micro-ops (perf stat -I; "
         "0=off)",
         kTelemetry},
        {"telemetry-out", "DIR", "write one series file per pair into DIR",
         kTelemetry},
        {"telemetry-format", "csv|jsonl",
         "series file format (default csv)", kTelemetry},
        {"resume", "", "resume an interrupted sweep from the journal",
         kCampaign},
        {"progress", "",
         "throttled sweep_progress events on stderr (item k/N, ops/s, "
         "ETA)",
         kCampaign},
        {"shard", "K/N",
         "run shard K of N of the sweep; journals to a per-shard file, "
         "fuse with `spec17 merge`",
         kCampaign},
        {"jobs", "N",
         "worker threads for parallel execution (default 1; "
         "0=hardware concurrency); results are byte-identical at any N",
         kParallel},
        {"export-jsonl", "FILE", "write one JSON record per group/point",
         kExport},
        {"batch-ops", "N",
         "fast-lane micro-op batch size (default 256); results are "
         "byte-identical at any N >= 1",
         kLanes},
        {"unbatched-stepping", "",
         "per-op reference lane instead of the batched fast lane "
         "(identity debugging; slow)",
         kLanes},
        {"allow-partial", "",
         "keep the contiguous record prefix when shards are "
         "missing or partial",
         kMerge},
        {"repair", "",
         "atomically drop the damaged suffix of corrupt journals",
         kFsck},
        {"apps", "A,B,...",
         "applications to co-run (default: a 4-app demo subset)", kCorun},
        {"quartets", "", "4-app groups instead of pairs", kCorun},
        {"no-self", "", "skip self-pairs (two copies of one app)", kCorun},
        {"partition", "",
         "sweep every contiguous CAT way split per pair (Pareto table)",
         kCorun},
        {"corun-chunk", "N",
         "context-interleave granularity in micro-ops (contention "
         "semantics: part of the config key)",
         kCorun},
        {"predictor", "NAME",
         "static-taken|bimodal|gshare|tournament|tage", kUarch},
        {"prefetcher", "NAME", "none|next-line|stride|stream", kUarch},
        {"l2-prefetcher", "NAME",
         "none|next-line|stride|stream at the L2 (config-key member)",
         kUarch},
        {"way-predictor", "NAME",
         "L1D way prediction: none|mru|utag (config-key member)", kUarch},
        {"way-penalty", "N",
         "extra load cycles on a way mispredict (default 2)", kUarch},
        {"stream-degree", "N",
         "stream-prefetch lines issued per trained observation "
         "(default 4)",
         kUarch},
        {"stream-distance", "N",
         "stream-prefetch run-ahead window in lines (default 16)", kUarch},
        {"tage-tables", "N",
         "TAGE tagged history tables (default 4; used with "
         "--predictor=tage)",
         kUarch},
        {"axis", "AXIS",
         "swept axis: predictor|prefetcher|l2-prefetcher|way-predictor",
         kExplore},
        {"multi-axis", "A,B,...",
         "sweep two or more axes together (mechanism axes plus "
         "tage-geometry|stream-geometry grids)",
         kExplore},
        {"multi-axis-mode", "MODE",
         "product (cross every combination, default) or descent "
         "(per-axis knee folded into the base)",
         kExplore},
        {"explore-out", "FILE", "write the Pareto table as CSV", kExplore},
        {"trace-arena-mb", "N",
         "trace-arena byte budget in MiB (default 512; 0 disables "
         "capture/replay); results are byte-identical either way",
         kArena},
        {"arena-spill-dir", "DIR",
         "persist captured arenas as S17A files under DIR; evicted or "
         "cross-run arenas reload instead of recapturing",
         kArena},
    };
    return table;
}

std::string
usage()
{
    std::string text =
        "spec17 -- SPEC CPU2017 workload characterization framework\n"
        "usage: spec17 <command> [flags]\n"
        "\n"
        "commands:\n"
        "  list                         enumerate application-input "
        "pairs\n"
        "  stat <app>                   run one pair, print perf "
        "counters\n"
        "  characterize                 sweep a suite, tabulate "
        "metrics\n"
        "  corun                        co-run interference sweep on "
        "the shared L3\n"
        "  explore --axis=AXIS          one-axis uarch design-space "
        "sweep (SSE-vs-cost Pareto table)\n"
        "  explore --multi-axis=A,B     multi-axis sweep: cross-"
        "product grid or coordinate descent\n"
        "  subset                       suggest a representative "
        "subset\n"
        "  phases <app>                 phase analysis of one pair\n"
        "  record <app> [--out=FILE]    save a micro-op trace to disk\n"
        "  replay <file>                run a saved trace\n"
        "  validate [--strict]          profile targets vs measured\n"
        "  events                       list the simulated perf events\n"
        "  config                       print machine configuration\n"
        "  merge --out=FILE <shards...> fuse shard journals into the "
        "canonical journal\n"
        "  fsck [--repair] <files...>   verify journal integrity "
        "record by record\n";
    const char *group = "";
    for (const FlagSpec &flag : flagTable()) {
        if (std::string(group) != flag.group) {
            group = flag.group;
            text += "\n";
            text += group;
            if (*flag.verbs != '\0')
                text += std::string(" (") + flag.verbs + ")";
            text += ":\n";
        }
        std::string left = "  --" + std::string(flag.name);
        if (flag.placeholder[0] != '\0')
            left += "=" + std::string(flag.placeholder);
        if (left.size() < 31)
            left.resize(31, ' ');
        else
            left += " ";
        text += left + flag.help + "\n";
    }
    return text;
}

int
runCommand(const CommandLine &command, std::ostream &out,
           std::ostream &err)
{
    if (command.command.empty() || command.hasFlag("help")) {
        out << usage();
        return command.command.empty() ? 2 : 0;
    }
    try {
        validateFlags(command);
        return dispatch(command, out, err);
    } catch (const UsageError &e) {
        err << "error: " << e.what() << "\n";
        return 2;
    } catch (const suite::JournalConfigMismatchError &e) {
        // A --resume against another campaign's journal: refusing is
        // the whole point -- replaying it would silently splice two
        // configurations into one result set.
        err << "error: " << e.what() << "\n";
        return 2;
    }
}

} // namespace cli
} // namespace spec17
