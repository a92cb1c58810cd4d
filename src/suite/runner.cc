#include "suite/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "telemetry/registry.hh"
#include "trace/arena.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace spec17 {
namespace suite {

using counters::CounterSet;
using counters::PerfEvent;
using workloads::AppInputPair;
using workloads::WorkloadProfile;

void
prefillSteadyState(sim::CpuSimulator &core,
                   const trace::SyntheticTraceGenerator &generator)
{
    // Models the steady-state cache residency a long-running SPEC
    // process would have: regions that fit a level are pre-installed
    // there, so a short measured sample is not dominated by
    // compulsory misses the full-length run would amortize away.
    const auto &regions = generator.params().regions;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const auto &region = regions[i];
        sim::HitLevel level;
        if (region.sizeBytes <= 32 * kKiB)
            level = sim::HitLevel::L1;
        else if (region.sizeBytes <= 256 * kKiB)
            level = sim::HitLevel::L2;
        else if (region.sizeBytes <= 8 * kMiB)
            level = sim::HitLevel::L3;
        else
            continue; // DRAM-level regions start (and stay) cold
        core.prefillData(generator.regionBase(i), region.sizeBytes,
                         level);
    }
    // The binary itself is equally warm in steady state: without
    // this, every cold-code excursion reads as a compulsory DRAM
    // fetch the full-length run would never see.
    const std::uint64_t code = generator.params().codeFootprintBytes;
    core.prefillData(generator.codeBase(), code,
                     code <= 96 * kKiB ? sim::HitLevel::L2
                                       : sim::HitLevel::L3);
}

std::string
ShardSpec::label() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

std::optional<ShardSpec>
ShardSpec::parse(const std::string &text)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0
        || slash + 1 >= text.size())
        return std::nullopt;
    const auto number = [](const std::string &cell)
        -> std::optional<unsigned> {
        if (cell.empty() || cell.size() > 9)
            return std::nullopt;
        unsigned value = 0;
        for (char c : cell) {
            if (c < '0' || c > '9')
                return std::nullopt;
            value = value * 10 + static_cast<unsigned>(c - '0');
        }
        return value;
    };
    const auto index = number(text.substr(0, slash));
    const auto count = number(text.substr(slash + 1));
    if (!index || !count || *count == 0 || *index == 0
        || *index > *count)
        return std::nullopt;
    return ShardSpec{*index, *count};
}

unsigned
resolveWorkerCount(unsigned jobs, std::size_t count)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    if (count < jobs)
        jobs = static_cast<unsigned>(std::max<std::size_t>(count, 1));
    return jobs;
}

std::uint64_t
retryBackoffDelayMs(std::uint64_t base_ms, unsigned attempt)
{
    if (base_ms == 0 || attempt == 0)
        return 0;
    const unsigned exponent =
        std::min(attempt - 1, kMaxBackoffExponent);
    // With the exponent clamped, base_ms <= kMaxBackoffDelayMs >>
    // exponent guarantees the shift cannot overflow either.
    if (base_ms > (kMaxBackoffDelayMs >> exponent))
        return kMaxBackoffDelayMs;
    return base_ms << exponent;
}

double
PairResult::ipc() const
{
    const std::uint64_t cycles =
        counters.get(PerfEvent::CpuClkUnhaltedRefTsc);
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(counters.get(PerfEvent::InstRetiredAny))
        / static_cast<double>(cycles);
}

const FailureRecord *
PairResult::finalFailure() const
{
    return errored && !failures.empty() ? &failures.back() : nullptr;
}

SuiteRunner::SuiteRunner(RunnerOptions options)
    : options_(std::move(options))
{
    SPEC17_ASSERT(options_.sampleOps >= kMinSampleOps,
                  "sample too small to be meaningful");
}

std::string
SuiteRunner::configKey() const
{
    // kResultVersion changes whenever simulator or workload semantics
    // change, invalidating on-disk caches produced by older builds.
    // v4: uarch knobs (TAGE geometry, stream prefetcher degree and
    // distance, l2 prefetcher slot, way predictor + penalty) entered
    // the config through SystemConfig::describe().
    static constexpr const char *kResultVersion = "spec17-results-v4";
    std::ostringstream os;
    os << kResultVersion << "|" << options_.system.describe()
       << "|sample=" << options_.sampleOps
       << "|warmup=" << options_.warmupOps << "|seed=" << options_.seed
       << "|retries=" << options_.maxRetries
       << "|deadline_ops=" << options_.pairDeadlineOps
       << "|deadline_ms=" << options_.pairDeadlineMs;
    return os.str();
}

namespace {

/**
 * Per-attempt watchdog: deterministic micro-op budget plus a coarse
 * wall-clock limit. Consulted at chunk boundaries of the simulation
 * loop; on expiry it raises a Deadline failure carrying how far the
 * attempt got.
 */
class Watchdog
{
  public:
    Watchdog(std::uint64_t op_budget, std::uint64_t ms_budget)
        : opBudget_(op_budget), msBudget_(ms_budget),
          start_(std::chrono::steady_clock::now())
    {
    }

    void
    check(std::uint64_t executed_ops, bool &cancel_flag) const
    {
        if (opBudget_ != 0 && executed_ops > opBudget_) {
            cancel_flag = true;
            std::ostringstream os;
            os << "op budget expired: " << executed_ops << " > "
               << opBudget_ << " micro-ops";
            throw PairExecutionError(FailureCategory::Deadline,
                                     os.str(), executed_ops);
        }
        if (msBudget_ != 0) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) > msBudget_) {
                cancel_flag = true;
                std::ostringstream os;
                os << "wall-clock budget expired: " << elapsed << " > "
                   << msBudget_ << " ms";
                throw PairExecutionError(FailureCategory::Deadline,
                                         os.str(), executed_ops);
            }
        }
    }

  private:
    std::uint64_t opBudget_;
    std::uint64_t msBudget_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace

workloads::BuildOptions
attemptBuildOptions(const RunnerOptions &options, unsigned attempt)
{
    workloads::BuildOptions build;
    build.sampleOps = options.sampleOps + options.warmupOps;
    // Attempt 0 uses the unperturbed seed (byte-identical to a run
    // without the fault layer); retries perturb it deterministically
    // so transiently unlucky stochastic states are not replayed.
    build.seed = attempt == 0
        ? options.seed
        : deriveSeed(deriveSeed(options.seed, "retry"), attempt);
    return build;
}

std::uint64_t
pairSimSeed(const AppInputPair &pair, std::uint64_t build_seed)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    return deriveSeed(deriveSeed(build_seed, pair.profile->name),
                      static_cast<std::uint64_t>(pair.size),
                      pair.inputIndex);
}

PairResult
makePairResult(const AppInputPair &pair)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    PairResult result;
    result.name = pair.displayName();
    result.profile = pair.profile;
    result.size = pair.size;
    result.inputIndex = pair.inputIndex;
    result.errored =
        pair.profile->isErrored(pair.size, pair.inputIndex);
    return result;
}

sim::SimResult
measuredSinceWarmup(sim::CpuSimulator &simulator,
                    const trace::TraceSource &source,
                    const CounterSet &warm, double warm_cycles)
{
    sim::SimResult sim_result = simulator.finish(source);
    const std::uint64_t vsz =
        sim_result.counters.get(PerfEvent::VszBytes);
    sim_result.counters = sim_result.counters.diff(warm);
    sim_result.counters.set(PerfEvent::VszBytes, vsz);
    sim_result.counters.set(PerfEvent::RssBytes,
                            simulator.footprint().rssBytes());
    sim_result.cycles -= warm_cycles;
    return sim_result;
}

void
finalizePairResult(const RunnerOptions &options,
                   const sim::SimResult &sim_result, PairResult &result)
{
    result.counters = sim_result.counters;
    result.wallCycles = sim_result.cycles;

    // ---- Scale back to paper units ----
    // The simulated sample stands in for the full run: rates (IPC,
    // miss and mispredict rates, mix percentages) are taken from the
    // sample; instruction count and execution time are reported at
    // paper scale.
    const WorkloadProfile &profile = *result.profile;
    result.instrBillions = profile.instrBillions(result.size);
    const double sim_instr = static_cast<double>(
        result.counters.get(PerfEvent::InstRetiredAny));
    if (!(sim_instr > 0.0)) {
        throw PairExecutionError(
            FailureCategory::Invariant,
            result.name + ": measured interval retired nothing");
    }
    const double wall_seconds = result.wallCycles
        / (options.system.core.frequencyGHz * 1e9);
    result.seconds =
        wall_seconds * (result.instrBillions * kBillion / sim_instr);

    // RSS/VSZ are microarchitecture-independent input magnitudes; the
    // sampled run cannot touch a paper-scale working set, so OVERRIDE
    // the gauges with the profile's declared values. Touched pages
    // remain a floor so tiny declarations stay honest; the simulated
    // region reservation (an artifact of the sampling substrate) is
    // discarded.
    const auto declared_rss = static_cast<std::uint64_t>(
        profile.rssMiB(result.size) * double(kMiB));
    const auto declared_vsz = static_cast<std::uint64_t>(
        profile.vszMiB(result.size) * double(kMiB));
    const std::uint64_t touched =
        result.counters.get(PerfEvent::RssBytes);
    result.counters.set(PerfEvent::RssBytes,
                        std::max(touched, declared_rss));
    result.counters.set(
        PerfEvent::VszBytes,
        std::max(result.counters.get(PerfEvent::RssBytes),
                 declared_vsz));
}

PairResult
SuiteRunner::runPairAttempt(const AppInputPair &pair,
                            unsigned attempt) const
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const WorkloadProfile &profile = *pair.profile;

    PairResult result = makePairResult(pair);

    // A malformed profile is a contained, diagnosable failure -- not
    // a NaN row and not a process abort mid-sweep.
    const std::string profile_error = profile.validationError();
    if (!profile_error.empty()) {
        throw PairExecutionError(FailureCategory::BadProfile,
                                 profile_error);
    }

    FaultInjector::Action injected = FaultInjector::Action::None;
    if (options_.faultInjector != nullptr)
        injected = options_.faultInjector->onAttempt(result.name, attempt);
    if (injected == FaultInjector::Action::Throw) {
        throw PairExecutionError(FailureCategory::Injected,
                                 "injected fault before simulation");
    }

    workloads::BuildOptions build = attemptBuildOptions(options_, attempt);
    if (injected == FaultInjector::Action::Stall) {
        // Runaway trace generation: emit far past the declared sample
        // so only the watchdog can stop the attempt.
        const std::uint64_t runaway = options_.pairDeadlineOps != 0
            ? options_.pairDeadlineOps * 4
            : (options_.sampleOps + options_.warmupOps) * 64;
        build.sampleOps = std::max(build.sampleOps, runaway);
    }

    const std::uint64_t pair_seed = pairSimSeed(pair, build.seed);

    const Watchdog watchdog(options_.pairDeadlineOps,
                            options_.pairDeadlineMs);
    bool cancelled = false;

    // Replay eligibility: the watchdog's cooperative cancel must act
    // DURING trace generation -- a fault-injected runaway captured to
    // completion would defeat it -- so replay stands down whenever the
    // fault layer or a per-attempt deadline is armed.
    const bool replay_eligible = options_.arenaStore != nullptr
        && options_.faultInjector == nullptr
        && options_.pairDeadlineOps == 0 && options_.pairDeadlineMs == 0;

    sim::SimResult sim_result;
    if (profile.numThreads > 1) {
        // The multicore interleaver runs to completion in one call, so
        // the op budget is enforced up front against the statically
        // known total; cooperative cancellation still bounds the
        // generators if the budget trips after the fact.
        watchdog.check(build.sampleOps, cancelled);
        std::vector<std::shared_ptr<trace::TraceSource>> sources;
        std::vector<std::shared_ptr<trace::SyntheticTraceGenerator>>
            generators;
        std::vector<std::shared_ptr<trace::ReplaySource>> replays;
        sim::MulticoreSimulator multicore(options_.system,
                                          profile.numThreads, pair_seed);
        for (unsigned t = 0; t < profile.numThreads; ++t) {
            sim::CpuSimulator &core = multicore.mutableCore(t);
            if (options_.batchOps != 0)
                core.setBatchOps(options_.batchOps);
            core.setUnbatchedStepping(options_.unbatchedStepping);
            // The generator is constructed even under replay: prefill
            // reads its region layout without consuming ops, so the
            // replayed stream still lands on warm caches.
            auto gen = std::make_shared<trace::SyntheticTraceGenerator>(
                workloads::buildTraceParams(pair, build, t));
            gen->setCancelFlag(&cancelled);
            prefillSteadyState(multicore.mutableCore(t), *gen);
            generators.push_back(gen);
            if (replay_eligible) {
                auto replay = std::make_shared<trace::ReplaySource>(
                    options_.arenaStore->acquire(gen->params()));
                replay->setCancelFlag(&cancelled);
                replays.push_back(replay);
                sources.push_back(std::move(replay));
            } else {
                sources.push_back(gen);
            }
        }

        // Interval telemetry, coarse mode: the interleaver's chunk
        // size shapes shared-L3 contention, so chunks cannot be
        // capped at sampling boundaries without changing results;
        // rows land at the first chunk end past each boundary. The
        // baseline is taken before the run, so intervals spanning
        // another context's warmup include that warmup traffic (the
        // contexts genuinely share the L3 during it).
        std::unique_ptr<telemetry::MetricsRegistry> registry;
        std::unique_ptr<telemetry::IntervalSampler> sampler;
        if (options_.sampleIntervalOps > 0) {
            registry = std::make_unique<telemetry::MetricsRegistry>();
            telemetry::registerMulticoreMetrics(*registry, multicore);
            for (unsigned t = 0; t < profile.numThreads; ++t) {
                const std::string prefix =
                    "core" + std::to_string(t) + ".";
                if (replay_eligible) {
                    telemetry::registerTraceMetrics(
                        *registry, *replays[t], prefix);
                } else {
                    telemetry::registerTraceMetrics(
                        *registry, *generators[t], prefix);
                }
            }
            sampler = std::make_unique<telemetry::IntervalSampler>(
                *registry, options_.sampleIntervalOps,
                telemetry::defaultDerivedSpecs());
            sampler->setCoarseBoundaries(true);
            sampler->begin();
        }

        std::uint64_t measured_total = 0;
        const sim::MulticoreSimulator::ChunkObserver on_chunk =
            sampler ? sim::MulticoreSimulator::ChunkObserver(
                          [&](std::uint64_t measured_ops) {
                              measured_total = measured_ops;
                              sampler->onProgress(measured_ops);
                          })
                    : sim::MulticoreSimulator::ChunkObserver();
        sim_result = multicore.run(sources, 10'000,
                                   options_.warmupOps
                                       / profile.numThreads,
                                   on_chunk);
        if (sampler) {
            sampler->finish(measured_total);
            result.series =
                std::make_shared<const telemetry::TimeSeries>(
                    sampler->series());
        }
        watchdog.check(
            sim_result.counters.get(PerfEvent::InstRetiredAny),
            cancelled);
    } else {
        trace::SyntheticTraceGenerator generator(
            workloads::buildTraceParams(pair, build, 0));
        generator.setCancelFlag(&cancelled);
        // Under replay the generator still exists -- prefill reads its
        // region layout without consuming ops -- but the simulated
        // stream comes from the captured arena instead.
        std::unique_ptr<trace::ReplaySource> replay;
        if (replay_eligible) {
            replay = std::make_unique<trace::ReplaySource>(
                options_.arenaStore->acquire(generator.params()));
            replay->setCancelFlag(&cancelled);
        }
        trace::TraceSource &source = replay
            ? static_cast<trace::TraceSource &>(*replay)
            : static_cast<trace::TraceSource &>(generator);
        sim::CpuSimulator simulator(options_.system, pair_seed);
        if (options_.batchOps != 0)
            simulator.setBatchOps(options_.batchOps);
        simulator.setUnbatchedStepping(options_.unbatchedStepping);
        prefillSteadyState(simulator, generator);
        std::uint64_t executed =
            simulator.step(source, options_.warmupOps);
        watchdog.check(executed, cancelled);
        const CounterSet warm = simulator.snapshot();
        const double warm_cycles = simulator.core().cycles();

        // Interval telemetry: the baseline lands exactly at the end
        // of warmup, so interval deltas sum to the measured-window
        // aggregates. Chunks are capped at the next boundary, which
        // keeps samples on exact micro-op boundaries (determinism)
        // without perturbing the simulated stream.
        std::unique_ptr<telemetry::MetricsRegistry> registry;
        std::unique_ptr<telemetry::IntervalSampler> sampler;
        if (options_.sampleIntervalOps > 0) {
            registry = std::make_unique<telemetry::MetricsRegistry>();
            telemetry::registerSimulatorMetrics(*registry, simulator);
            if (replay)
                telemetry::registerTraceMetrics(*registry, *replay);
            else
                telemetry::registerTraceMetrics(*registry, generator);
            sampler = std::make_unique<telemetry::IntervalSampler>(
                *registry, options_.sampleIntervalOps,
                telemetry::defaultDerivedSpecs());
            sampler->begin();
        }

        constexpr std::uint64_t kChunk = 1 << 20;
        std::uint64_t measured = 0;
        while (true) {
            std::uint64_t chunk = kChunk;
            if (sampler) {
                chunk = std::min(
                    chunk, sampler->opsUntilNextSample(measured));
            }
            const std::uint64_t done = simulator.step(source, chunk);
            executed += done;
            measured += done;
            watchdog.check(executed, cancelled);
            if (sampler)
                sampler->onProgress(measured);
            if (done < chunk)
                break;
        }
        if (sampler) {
            sampler->finish(measured);
            result.series =
                std::make_shared<const telemetry::TimeSeries>(
                    sampler->series());
        }
        sim_result =
            measuredSinceWarmup(simulator, source, warm, warm_cycles);
    }

    finalizePairResult(options_, sim_result, result);
    return result;
}

PairResult
SuiteRunner::runPair(const AppInputPair &pair) const
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const std::string name = pair.displayName();

    std::vector<FailureRecord> failures;
    const unsigned max_attempts = options_.maxRetries + 1;
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        const std::uint64_t delay_ms =
            attempt > 0
            ? retryBackoffDelayMs(options_.retryBackoffMs, attempt)
            : 0;
        if (delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
        try {
            PairResult result = runPairAttempt(pair, attempt);
            result.attempts = attempt + 1;
            result.failures = std::move(failures);
            // Series from failed attempts never reach this point
            // (the attempt threw and its sampler died with it); only
            // the successful attempt's series is committed.
            if (options_.telemetrySink != nullptr
                && result.series != nullptr) {
                options_.telemetrySink->write(result.name,
                                              *result.series);
            }
            if (result.recovered()) {
                logEvent("pair_recovered",
                         {{"pair", name},
                          {"attempts",
                           std::to_string(result.attempts)}});
            }
            return result;
        } catch (const PairExecutionError &error) {
            failures.push_back({error.category(), error.what(), attempt,
                                error.opsCompleted()});
        } catch (const std::exception &error) {
            failures.push_back({FailureCategory::Exception, error.what(),
                                attempt, 0});
        }
        const FailureRecord &last = failures.back();
        logEvent("pair_attempt_failed",
                 {{"pair", name},
                  {"attempt", std::to_string(attempt)},
                  {"category", failureCategoryName(last.category)},
                  {"ops", std::to_string(last.opsCompleted)},
                  {"message", last.message}});
        // A malformed profile fails every attempt identically --
        // retrying (and sleeping the backoff) would only replay the
        // same diagnosis, so fail fast instead.
        if (last.category == FailureCategory::BadProfile)
            break;
    }

    // Every attempt failed: surface an errored result mirroring the
    // paper's "could not collect" semantics so aggregate analysis
    // excludes the pair while the sweep carries on.
    PairResult failed = makePairResult(pair);
    failed.errored = true;
    failed.attempts = static_cast<unsigned>(failures.size());
    failed.failures = std::move(failures);
    logEvent("pair_errored",
             {{"pair", name},
              {"attempts", std::to_string(failed.attempts)},
              {"category",
               failureCategoryName(failed.failures.back().category)}});
    return failed;
}

std::vector<PairResult>
SuiteRunner::runAll(const std::vector<WorkloadProfile> &suite,
                    workloads::InputSize size) const
{
    return runPairs(enumeratePairs(suite, size));
}

std::vector<PairResult>
SuiteRunner::runPairs(const std::vector<AppInputPair> &pairs) const
{
    return runOrderedPool<PairResult>(
        pairs.size(), options_.jobs,
        [&](std::size_t i) { return runPair(pairs[i]); },
        [](const PairResult &, std::size_t) {});
}

} // namespace suite
} // namespace spec17
