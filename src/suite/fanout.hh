/**
 * @file
 * Multi-point fan-out execution: runs M design points (same pair
 * enumeration, different SystemConfigs) through one shared trace
 * arena, reading each pair's captured stream once per lockstep chunk
 * instead of once per point.
 *
 * Two cost levers compose here (docs/performance.md):
 *  - capture-once/replay-many arenas (suite/arena_store.hh): the
 *    pair's trace is generated once and every point replays it
 *    zero-copy;
 *  - lane-import clone groups: points that differ only on the branch
 *    side share one leader, which pays the steady-state prefill and
 *    records its memory-side lanes; each sibling imports them
 *    (CpuSimulator::step's import) and is built on the leader's L3,
 *    which it never touches, so it allocates only its small private
 *    caches. Every simulator is constructed fresh per pair; no
 *    buffers are donated between pairs.
 *
 * Each design point is one campaign of the shared sweep loop
 * (CampaignStore::sweepAll), which journals it; the per-pair lockstep
 * pass is that loop's per-item work.
 *
 * Identity by construction: every cell reuses the runner's own
 * derivations (attemptBuildOptions, pairSimSeed, prefillSteadyState,
 * finalizePairResult) and replay is draw-for-draw identical to live
 * generation, so a fan-out sweep's results -- and each point's
 * journal bytes -- are identical to M independent per-point sweeps.
 * Any cell the engine cannot run this way (every cell of a
 * configuration that fails fanoutEligible, multi-threaded pairs,
 * malformed profiles, cells that fault mid-replay) delegates to
 * SuiteRunner::runPair, which reproduces the per-point semantics
 * (retries, failure records) exactly. So this engine is the one path
 * for any multi-point sweep, whatever the runner flags.
 */

#ifndef SPEC17_SUITE_FANOUT_HH_
#define SPEC17_SUITE_FANOUT_HH_

#include <string>
#include <vector>

#include "suite/result_cache.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace suite {

/** One design point of a fan-out sweep. */
struct FanoutSession
{
    /** The point's full runner configuration (typically the shared
     *  base with only `system` changed). Must share every non-system
     *  knob -- and the arena store -- with its sibling sessions, so
     *  all points are eligible for lockstep (see fanoutEligible) or
     *  none is. */
    RunnerOptions runner;
    /** Result-journal base path for this point (the same path a
     *  per-point ResultCache would use); empty disables journaling. */
    std::string cachePath;
    /** Notified after each of this point's pairs, in canonical order
     *  (journal-replayed prefix rows included, exactly as
     *  ResultCache::runOrLoad reports them). */
    ResultCache::Observer observer;
};

/**
 * True when @p options can run on the fan-out engine's lockstep pass:
 * an arena store is attached and nothing that requires live
 * generation or per-pair observation hooks is armed (interval
 * telemetry, telemetry sink, fault injection, watchdog deadlines, the
 * unbatched reference lane). runFanoutSweep runs every cell of an
 * ineligible configuration through the point's own
 * SuiteRunner::runPair instead; the results are identical either way.
 */
bool fanoutEligible(const RunnerOptions &options);

/**
 * Runs every pair of (@p suite, @p size) across all @p sessions,
 * pair-major: per pair, the arena is acquired once and all points
 * simulate it in lockstep chunks. The sessions are the campaigns of
 * one ResultCache::sweepAll pass under @p options, so each result
 * vector (one per session, in order) is byte-equivalent to that
 * session's ResultCache::runOrLoad at any job count. Sessions must be
 * non-empty and agree on every non-system runner knob.
 */
std::vector<std::vector<PairResult>> runFanoutSweep(
    const std::vector<FanoutSession> &sessions,
    const std::vector<workloads::WorkloadProfile> &suite,
    workloads::InputSize size, const CampaignOptions &options = {});

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_FANOUT_HH_
