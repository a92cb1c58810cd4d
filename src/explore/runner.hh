/**
 * @file
 * Design-space exploration execution: runs each point of one axis as
 * a full suite sweep on the generalized pool/journal machinery (jobs,
 * shards, resume all compose), scores it as the sum of squared
 * deviations from the paper's profile targets (the validate metric),
 * and marks the Pareto frontier and knee of the SSE-vs-storage-cost
 * trade-off.
 *
 * Determinism: each point's sweep is byte-identical at any job count
 * and across resume (inherited from SuiteRunner / ResultCache), points
 * run in plan order, and scoring is pure arithmetic over the sweep's
 * results -- so the Pareto table itself is byte-identical at any job
 * count and across a mid-sweep resume.
 */

#ifndef SPEC17_EXPLORE_RUNNER_HH_
#define SPEC17_EXPLORE_RUNNER_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "explore/plan.hh"
#include "suite/result_cache.hh"
#include "suite/runner.hh"
#include "workloads/profile.hh"

namespace spec17 {
namespace explore {

/** Explorer configuration; resume and shard apply to every point's
 *  pair sweep. */
struct ExploreOptions : suite::CampaignOptions
{
    /** Base sweep options; `system` is replaced per point. */
    suite::RunnerOptions runner;
    workloads::SuiteGeneration generation =
        workloads::SuiteGeneration::Cpu2017;
    workloads::InputSize size = workloads::InputSize::Ref;
    /** Result-cache base path; empty disables caching. Each point
     *  journals to its own derived path (see pointCachePath), so
     *  resumed explorations never splice configs. */
    std::string cachePath = suite::ResultCache::defaultPath();
    /** Forwarded to every point's sweep (live progress). */
    suite::ResultCache::Observer pairObserver;
};

/** One explored point with its accuracy/cost score. */
struct PointResult
{
    ExplorePoint point;
    /** Sum over non-errored pairs of squared pp deviations from the
     *  profile targets (L1/L2/L3 miss + mispredict, the validate
     *  basis). */
    double sse = 0.0;
    /**
     * Mean IPC over the non-errored pairs. Not part of the SSE (the
     * profiles carry no IPC target): it surfaces the timing effect of
     * mechanisms the miss-rate SSE is blind to (way-mispredict
     * penalties, prefetch latency hiding).
     */
    double meanIpc = 0.0;
    /** Pairs contributing to the SSE. */
    std::size_t pairs = 0;
    /** Pairs excluded (errored in the paper or at runtime). */
    std::size_t errored = 0;
    /** Dominated by another point of the axis (worse-or-equal on both
     *  SSE and cost, strictly worse on one). */
    bool dominated = false;
    /** The Pareto-knee pick of the axis (cluster::paretoKnee). */
    bool knee = false;
};

/**
 * Squared-deviation score of one pair: (got - target)^2 summed over
 * the four percent-scale profile targets (L1/L2/L3 load miss and
 * branch mispredict), matching `spec17 validate`'s deviation basis.
 */
double pairSse(const suite::PairResult &result);

/** One stage of a coordinate-descent exploration. */
struct DescentStep
{
    /** Axis this stage swept. */
    std::string axis;
    /** The stage's scored points (plan order, Pareto-marked). */
    std::vector<PointResult> points;
    /** Index of the knee point folded into the base for later
     *  stages. */
    std::size_t chosen = 0;
};

class ExploreRunner
{
  public:
    explicit ExploreRunner(ExploreOptions options);

    /**
     * Sweeps @p axis (must satisfy isAxis()): runs every planned
     * point's suite sweep, scores it, and marks dominated points and
     * the knee. Results are in plan order.
     */
    std::vector<PointResult> runAxis(const std::string &axis) const;

    /**
     * Cross-product multi-axis sweep (explore::planCross over
     * @p axes): every combination becomes one point, scored and
     * Pareto-marked over the whole product. Jobs, shards and resume
     * compose exactly as for one-axis plans.
     */
    std::vector<PointResult> runCross(
        const std::vector<std::string> &axes) const;

    /**
     * Coordinate descent over @p axes, in order: each stage sweeps
     * one axis from the current base, folds the stage's Pareto-knee
     * winner into the base, and proceeds. A geometry axis whose
     * mechanism an earlier stage disabled is skipped with a warning
     * (its grid would score identical points). Stage journals are
     * step-indexed (see pointCachePath's step tag) so a resumed
     * descent replays each stage against its own campaign.
     */
    std::vector<DescentStep> runDescent(
        const std::vector<std::string> &axes) const;

    /**
     * Runs and scores an explicit point list (plan order preserved,
     * Pareto marked over the list). Always executes on the multi-point
     * fan-out engine (suite::runFanoutSweep): with an eligible arena
     * store one trace capture feeds every point per pair; an
     * ineligible configuration runs each cell through its point's own
     * SuiteRunner::runPair. Results and per-point journals are those
     * of independent per-point sweeps either way.
     * @p step_tag namespaces the per-point journals (descent stages).
     */
    std::vector<PointResult> runPoints(
        const std::vector<ExplorePoint> &points,
        const std::string &step_tag = "") const;

    /** runPoints' score of @p point from its sweep @p rows: the SSE
     *  and mean IPC over the non-errored pairs, plus the pair counts.
     *  Pareto marks are left to markPareto. */
    static PointResult scorePoint(
        const ExplorePoint &point,
        const std::vector<suite::PairResult> &rows);

    /**
     * Journal base path for @p point:
     * `<cachePath>.explore[.<step_tag>].<axis>.<label>` (empty when
     * caching is off). Per-point paths keep every point's campaign
     * header self-consistent -- a resumed exploration replays each
     * point against its own journal instead of refusing on the
     * previous point's config key.
     */
    std::string pointCachePath(const ExplorePoint &point,
                               const std::string &step_tag = "") const;

    const ExploreOptions &options() const { return options_; }

  private:
    ExploreOptions options_;
};

/** Marks dominated points and the Pareto knee in place. */
void markPareto(std::vector<PointResult> &points);

} // namespace explore
} // namespace spec17

#endif // SPEC17_EXPLORE_RUNNER_HH_
