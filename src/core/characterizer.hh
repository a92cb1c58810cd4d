/**
 * @file
 * Top-level facade tying the whole study together: runs (or loads
 * from cache) suite sweeps and hands out metrics and redundancy
 * analyses. This is the entry point examples and benches use.
 */

#ifndef SPEC17_CORE_CHARACTERIZER_HH_
#define SPEC17_CORE_CHARACTERIZER_HH_

#include <map>
#include <string>
#include <vector>

#include "core/compare.hh"
#include "core/metrics.hh"
#include "core/redundancy.hh"
#include "core/subset.hh"
#include "suite/result_cache.hh"

namespace spec17 {
namespace core {

/** Configuration of a characterization session; the campaign scope
 *  (resume, shard) applies to every sweep it runs. */
struct CharacterizerOptions : suite::CampaignOptions
{
    suite::RunnerOptions runner;
    /** Result-cache base path; empty disables caching. */
    std::string cachePath = suite::ResultCache::defaultPath();
    /** Notified after each pair of a simulated sweep (live progress
     *  reporting); never invoked on full cache hits. */
    suite::ResultCache::Observer pairObserver;
};

/**
 * One characterization session: memoizes suite sweeps per
 * (generation, input size) in memory and persists them via the
 * on-disk result cache, so repeated queries are free.
 */
class Characterizer
{
  public:
    explicit Characterizer(CharacterizerOptions options = {});

    /** Results for every pair of a suite at an input size. */
    const std::vector<suite::PairResult> &results(
        workloads::SuiteGeneration generation, workloads::InputSize size);

    /** Derived Section-IV metrics (including errored pairs, marked). */
    std::vector<Metrics> metrics(workloads::SuiteGeneration generation,
                                 workloads::InputSize size);

    /**
     * Pairs of the sweep that errored or needed retries, for failure
     * summaries. Pointers borrow from the memoized results and stay
     * valid for the session's lifetime.
     */
    std::vector<const suite::PairResult *> failures(
        workloads::SuiteGeneration generation, workloads::InputSize size);

    /**
     * Redundancy analysis over a filtered slice of the CPU2017 ref
     * pairs: the paper analyses rate (rate int + rate fp) and speed
     * (speed int + speed fp) separately for Figs. 9-10 / Table X.
     * @param speed true for the speed pairs, false for rate.
     */
    RedundancyAnalysis redundancyFor(bool speed,
                                     const RedundancyOptions &options
                                     = {});

    /** Redundancy analysis over ALL CPU2017 ref pairs (Figs. 7-8). */
    RedundancyAnalysis redundancyAll(const RedundancyOptions &options
                                     = {});

    const suite::SuiteRunner &runner() const { return runner_; }

  private:
    suite::SuiteRunner runner_;
    suite::ResultCache cache_;
    suite::ResultCache::Observer pairObserver_;
    std::map<std::pair<int, int>, std::vector<suite::PairResult>> memo_;
};

} // namespace core
} // namespace spec17

#endif // SPEC17_CORE_CHARACTERIZER_HH_
