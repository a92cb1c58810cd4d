#include "suite/fanout.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "sim/simulator.hh"
#include "suite/arena_store.hh"
#include "trace/arena.hh"
#include "util/logging.hh"

namespace spec17 {
namespace suite {

using workloads::AppInputPair;
using workloads::WorkloadProfile;

namespace {

/** Micro-ops per lockstep chunk: small enough that one chunk's arena
 *  slice stays cache-resident while every point consumes it, large
 *  enough to amortize the per-step dispatch. Purely an execution-
 *  strategy constant -- batch-size invariance (the golden identity
 *  tests) makes chunk splits result-neutral. */
constexpr std::uint64_t kLockstepOps = 16384;

void
appendCacheConfig(std::ostringstream &os, const sim::CacheConfig &cache)
{
    os << cache.name << "," << cache.sizeBytes << "," << cache.assoc
       << "," << cache.lineBytes << ","
       << sim::replacementPolicyName(cache.policy) << ","
       << cache.hitLatency << ","
       << sim::wayPredictorName(cache.wayPredictor) << ","
       << cache.wayMispredictPenalty << ";";
}

void
appendTlbConfig(std::ostringstream &os, const sim::TlbConfig &tlb)
{
    os << tlb.l1Entries << "," << tlb.l2Entries << "," << tlb.pageBytes
       << "," << tlb.l2HitLatency << "," << tlb.walkLatency << ";";
}

/**
 * Lane-import clone key: two points with equal keys (and equal
 * batchOps, appended by the caller) produce bit-identical memory/TLB
 * lane streams over the same arena, because nothing on the branch
 * side feeds back into cache or TLB state. Everything that shapes the
 * recorded lanes is included -- the full hierarchy, the core
 * parameters (frontendBufferCycles and the op latencies bake into the
 * recorded stall/latency lanes), and both TLBs. The branch predictor
 * and TAGE geometry are deliberately absent: they only influence the
 * per-sim branch pass, which importing siblings still run themselves.
 */
std::string
importCloneKey(const sim::SystemConfig &system)
{
    std::ostringstream os;
    os << hierarchyCloneKey(system.hierarchy) << "|";
    const sim::CoreParams &core = system.core;
    os << core.dispatchWidth << "," << core.robSize << ","
       << core.numMshrs << "," << core.mispredictPenalty << ","
       << core.branchResolveLatency << ","
       << core.frontendBufferCycles << "," << core.intAluLatency << ","
       << core.intMulLatency << "," << core.intDivLatency << ","
       << core.fpAddLatency << "," << core.fpMulLatency << ","
       << core.fpDivLatency << "," << core.frequencyGHz << "|"
       << system.enableTlb << "|";
    appendTlbConfig(os, system.dtlb);
    appendTlbConfig(os, system.itlb);
    return os.str();
}

/** One pair's fresh result per session; empty for the sessions the
 *  pair was not run for. */
using Row = std::vector<std::optional<PairResult>>;

/**
 * Bounded freelist of dead simulators whose heap buffers the next
 * pair's constructions adopt. Recycling is an allocation shortcut
 * only (results are bit-identical to fresh construction), so the
 * freelist can drop donors freely when full.
 */
class DonorPool
{
  public:
    explicit DonorPool(std::size_t cap) : cap_(cap) {}

    std::vector<std::unique_ptr<sim::CpuSimulator>>
    take(std::size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::unique_ptr<sim::CpuSimulator>> out;
        while (n-- > 0 && !donors_.empty()) {
            out.push_back(std::move(donors_.back()));
            donors_.pop_back();
        }
        return out;
    }

    void
    give(std::vector<std::unique_ptr<sim::CpuSimulator>> sims)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &sim : sims) {
            if (donors_.size() >= cap_)
                return; // drop the rest: recycling is best-effort
            donors_.push_back(std::move(sim));
        }
    }

  private:
    std::size_t cap_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<sim::CpuSimulator>> donors_;
};

/**
 * Simulates @p pair for every session index in @p active and returns
 * each point's result in its session slot. Cells the shared-arena
 * path cannot reproduce exactly (ineligible configurations,
 * multi-threaded pairs, malformed profiles, any cell that faults)
 * delegate to the point's own SuiteRunner::runPair, which carries the
 * full retry/failure-record semantics.
 */
Row
runFanoutPair(const AppInputPair &pair,
              const std::vector<FanoutSession> &sessions,
              const std::vector<std::unique_ptr<SuiteRunner>> &runners,
              const std::vector<std::size_t> &active, DonorPool &donors)
{
    SPEC17_ASSERT(pair.profile != nullptr, "pair without profile");
    const WorkloadProfile &profile = *pair.profile;

    Row row(sessions.size());
    const auto fallback = [&](std::size_t p) {
        row[p] = runners[p]->runPair(pair);
    };

    // An ineligible configuration needs live generation or per-pair
    // hooks the lockstep pass does not run. The multicore
    // interleaver's chunk schedule shapes shared-L3 contention; it
    // runs per point. A malformed profile is a contained per-point
    // failure. All take the ordinary path (an attached arena store
    // still deduplicates their trace captures).
    const RunnerOptions &base = sessions[active.front()].runner;
    if (!fanoutEligible(base) || profile.numThreads > 1
        || !profile.validationError().empty()) {
        for (std::size_t p : active)
            fallback(p);
        return row;
    }

    const workloads::BuildOptions build = attemptBuildOptions(base, 0);
    const std::uint64_t pair_seed = pairSimSeed(pair, build.seed);

    // The generator is only consulted for its region layout (prefill
    // never consumes ops); the simulated stream is the shared arena.
    trace::SyntheticTraceGenerator generator(
        workloads::buildTraceParams(pair, build, 0));
    const std::shared_ptr<const trace::TraceArena> arena =
        base.arenaStore->acquire(generator.params());

    const std::size_t n = active.size();
    std::vector<std::unique_ptr<sim::CpuSimulator>> recycled =
        donors.take(n);
    std::vector<std::unique_ptr<sim::CpuSimulator>> sims(n);
    std::vector<trace::ReplaySource> replays;
    replays.reserve(n);
    std::map<std::string, std::size_t> import_leaders;
    std::map<std::string, std::size_t> hier_leaders;
    std::vector<std::size_t> leader_of(n);
    std::vector<char> failed(n, 0);

    for (std::size_t j = 0; j < n; ++j) {
        const RunnerOptions &point = sessions[active[j]].runner;
        std::unique_ptr<sim::CpuSimulator> donor;
        if (!recycled.empty()) {
            donor = std::move(recycled.back());
            recycled.pop_back();
        }
        // Clone groups, two tiers. A point matching an earlier point
        // in everything but the branch side (importCloneKey) becomes
        // a lane-importing sibling: it consumes the leader's recorded
        // memory lanes during lockstep, so its own hierarchy is never
        // accessed -- no prefill, no state copy, and a dirty-recycled
        // construction whose lanes legitimately stay garbage. A point
        // matching only the hierarchy (hierarchyCloneKey) still
        // clones the leader's prefilled cache state instead of
        // re-filling 30 MiB of lines, then simulates independently.
        const std::string import_key =
            importCloneKey(point.system) + "|batch="
            + std::to_string(point.batchOps);
        const auto import_leader = import_leaders.find(import_key);
        if (import_leader != import_leaders.end()) {
            leader_of[j] = import_leader->second;
            sims[j] = std::make_unique<sim::CpuSimulator>(
                point.system, pair_seed, nullptr, nullptr, donor.get(),
                true);
        } else {
            leader_of[j] = j;
            const std::string hier_key =
                hierarchyCloneKey(point.system.hierarchy);
            const auto hier_leader = hier_leaders.find(hier_key);
            const bool clone = hier_leader != hier_leaders.end();
            sims[j] = std::make_unique<sim::CpuSimulator>(
                point.system, pair_seed, nullptr, nullptr, donor.get(),
                clone);
            if (clone) {
                sims[j]->copyPrefillFrom(*sims[hier_leader->second]);
            } else {
                prefillSteadyState(*sims[j], generator);
                hier_leaders.emplace(hier_key, j);
            }
            import_leaders.emplace(import_key, j);
        }
        if (point.batchOps != 0)
            sims[j]->setBatchOps(point.batchOps);
        replays.emplace_back(arena);
    }

    // Per-leader lane logs, recorded fresh each lockstep chunk.
    // Leaders without siblings skip recording entirely. A sibling is
    // marked failed as soon as its leader fails, BEFORE it would
    // consume the (then partial) log; the fallback below reruns it on
    // the ordinary per-point path.
    std::vector<std::size_t> group_size(n, 0);
    for (std::size_t j = 0; j < n; ++j)
        ++group_size[leader_of[j]];
    std::vector<sim::MemoryLaneLog> logs(n);
    const auto step_lockstep = [&](std::size_t j,
                                   std::uint64_t chunk) {
        const std::size_t lead = leader_of[j];
        if (lead != j)
            return sims[j]->step(replays[j], chunk, nullptr, &logs[lead]);
        if (group_size[j] == 1)
            return sims[j]->step(replays[j], chunk);
        logs[j].clear();
        return sims[j]->step(replays[j], chunk, &logs[j]);
    };

    // Lockstep warmup: all points consume the same arena slice chunk
    // by chunk, splitting exactly at the warmup boundary. Batch-size
    // invariance makes the chunking result-neutral.
    std::vector<counters::CounterSet> warm(n);
    std::vector<double> warm_cycles(n, 0.0);
    std::uint64_t warmed = 0;
    while (warmed < base.warmupOps) {
        const std::uint64_t chunk =
            std::min(kLockstepOps, base.warmupOps - warmed);
        for (std::size_t j = 0; j < n; ++j) {
            if (failed[j])
                continue;
            if (leader_of[j] != j && failed[leader_of[j]]) {
                failed[j] = 1;
                continue;
            }
            try {
                step_lockstep(j, chunk);
            } catch (...) {
                failed[j] = 1;
            }
        }
        warmed += chunk;
    }
    for (std::size_t j = 0; j < n; ++j) {
        if (failed[j])
            continue;
        warm[j] = sims[j]->snapshot();
        warm_cycles[j] = sims[j]->core().cycles();
    }

    // Lockstep measurement until every replay cursor drains. All
    // cursors walk the same arena, so the points stay within one
    // chunk of each other and each slice is read while still hot.
    // Siblings drain exactly when their leader does (identical
    // sources), so a live sibling never outruns its leader's log.
    bool all_drained = false;
    std::vector<char> drained(n, 0);
    while (!all_drained) {
        all_drained = true;
        for (std::size_t j = 0; j < n; ++j) {
            if (failed[j] || drained[j])
                continue;
            if (leader_of[j] != j && failed[leader_of[j]]) {
                failed[j] = 1;
                continue;
            }
            try {
                const std::uint64_t got =
                    step_lockstep(j, kLockstepOps);
                if (got < kLockstepOps)
                    drained[j] = 1;
                else
                    all_drained = false;
            } catch (...) {
                failed[j] = 1;
            }
        }
    }

    for (std::size_t j = 0; j < n; ++j) {
        if (failed[j])
            continue;
        const std::size_t p = active[j];
        try {
            // The exact measurement tail of the runner's single-core
            // attempt.
            const sim::SimResult sim_result = measuredSinceWarmup(
                *sims[j], replays[j], warm[j], warm_cycles[j]);
            PairResult result = makePairResult(pair);
            finalizePairResult(sessions[p].runner, sim_result, result);
            row[p] = std::move(result);
        } catch (...) {
            failed[j] = 1;
        }
    }

    // Faulted cells rerun on the ordinary per-point path, which
    // reproduces the failure containment (retries, failure records,
    // errored results) byte-identically -- the fault is
    // deterministic, so the rerun diagnoses what the cell hit.
    for (std::size_t j = 0; j < n; ++j) {
        if (failed[j])
            fallback(active[j]);
    }

    donors.give(std::move(sims));
    return row;
}

} // namespace

std::string
hierarchyCloneKey(const sim::HierarchyConfig &hierarchy)
{
    std::ostringstream os;
    appendCacheConfig(os, hierarchy.l1i);
    appendCacheConfig(os, hierarchy.l1d);
    appendCacheConfig(os, hierarchy.l2);
    appendCacheConfig(os, hierarchy.l3);
    os << hierarchy.memLatency << ";" << hierarchy.prefetcher << ";"
       << hierarchy.l2Prefetcher << ";" << hierarchy.streamDegree << ","
       << hierarchy.streamDistance;
    return os.str();
}

bool
fanoutEligible(const RunnerOptions &options)
{
    return options.arenaStore != nullptr
        && options.sampleIntervalOps == 0
        && options.telemetrySink == nullptr
        && options.faultInjector == nullptr && !options.unbatchedStepping
        && options.pairDeadlineOps == 0 && options.pairDeadlineMs == 0;
}

std::vector<std::vector<PairResult>>
runFanoutSweep(const std::vector<FanoutSession> &sessions,
               const std::vector<WorkloadProfile> &suite,
               workloads::InputSize size, const CampaignOptions &options)
{
    SPEC17_ASSERT(!sessions.empty(), "fan-out sweep without points");
    for (const FanoutSession &session : sessions) {
        SPEC17_ASSERT(session.runner.arenaStore
                          == sessions.front().runner.arenaStore,
                      "fan-out sessions must share one arena store");
    }

    // One campaign per point (an empty cache path is a pass-through
    // journal), swept exactly as that point's own runOrLoad would.
    const std::size_t m = sessions.size();
    std::vector<std::unique_ptr<SuiteRunner>> runners;
    std::vector<ResultCache> caches;
    std::vector<ResultCache::Campaign> campaigns;
    runners.reserve(m);
    caches.reserve(m);
    for (const FanoutSession &session : sessions) {
        runners.push_back(std::make_unique<SuiteRunner>(session.runner));
        caches.emplace_back(session.cachePath, options.resume,
                            options.shard);
        campaigns.push_back(
            {&caches.back(), caches.back().identity(*runners.back(), suite,
                                                    size),
             session.observer});
    }

    const auto pairs = suite.empty()
        ? std::vector<AppInputPair>{}
        : shardSlice(enumeratePairs(suite, size), options.shard);
    DonorPool donors(m);
    return ResultCache::sweepAll(
        campaigns, pairs, sessions.front().runner.jobs,
        [&](const AppInputPair &pair,
            const std::vector<std::size_t> &active) {
            return runFanoutPair(pair, sessions, runners, active, donors);
        });
}

} // namespace suite
} // namespace spec17
