/**
 * @file
 * On-disk cache of suite-run results, doubling as a crash-safe,
 * self-validating sweep journal: the PairResult campaign of
 * CampaignStore (suite/campaign_store.hh), which owns every journal
 * rule. This file adds the journal naming and the PairResult record
 * codec. Shard journals of one campaign merge into the unsharded
 * journal byte-identically via `spec17 merge` (suite/journal.hh).
 */

#ifndef SPEC17_SUITE_RESULT_CACHE_HH_
#define SPEC17_SUITE_RESULT_CACHE_HH_

#include <optional>
#include <string>
#include <vector>

#include "suite/campaign_store.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace suite {

/**
 * 16-hex-digit digest of the full canonical pair enumeration of
 * (@p suite, @p size) -- generation, size and every pair display
 * name, pre-shard. Shards of one campaign share it; journals from a
 * different suite or size cannot be confused for shards.
 */
std::string pairSetDigest(
    const std::vector<workloads::WorkloadProfile> &suite,
    workloads::InputSize size);

/** Journal codec of one PairResult per application-input pair. */
struct PairResultCodec
{
    using Record = PairResult;
    using Item = workloads::AppInputPair;
    static constexpr const char *kUnit = "pair";

    static std::string columnHeader();
    /** Full double precision, so the payload -- and therefore the
     *  journal bytes -- is identical whichever process writes it. */
    static std::string serialize(const PairResult &result);
    /** Profile left unbound until bind(). */
    static std::optional<PairResult> parse(const std::string &payload,
                                           std::string &reason);
    static std::string itemName(const Item &pair)
    {
        return pair.displayName();
    }
    static void bind(PairResult &result, const Item &pair)
    {
        result.profile = pair.profile;
        result.size = pair.size;
    }
};

/** Journal-backed result store, keyed by (suite generation, input
 *  size, shard); see CampaignStore for the journal rules. */
class ResultCache : public CampaignStore<PairResultCodec>
{
  public:
    /** @param path journal base path ("" disables persistence);
     *  @param resume replay a partial journal instead of discarding. */
    explicit ResultCache(std::string path, bool resume = false);

    /** Default cache location: $SPEC17_CACHE or spec17_results. */
    static std::string defaultPath();

    /** `<base>.<gen>.<size>[.shardKofN].csv` for (@p suite, @p size)
     *  ("" when persistence is off). */
    std::string journalFile(
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size) const;

    /**
     * Loads this shard's results for (@p suite, @p size) recorded
     * under @p runner's fingerprint, or simulates the missing
     * remainder, journaling each completed pair. Profile pointers in
     * returned results are bound into @p suite. @p observer sees
     * every pair of a simulated sweep -- journal-replayed ones
     * flagged PairResult::replayed -- in canonical order at any job
     * count; never invoked on a full cache hit.
     */
    std::vector<PairResult> runOrLoad(
        const SuiteRunner &runner,
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size,
        const SuiteRunner::PairObserver &observer = {});

    /**
     * @name Sweep-session seam
     * runOrLoad() decomposed for engines that interleave many sweeps
     * (suite/fanout.hh): beginSweep() once over the shard's pairs in
     * canonical order, checkpoint() after each newly completed pair,
     * finish() at the end -- the same journal bytes as runOrLoad().
     */
    /// @{
    SweepPrefix beginSweep(
        const SuiteRunner &runner,
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size,
        const std::vector<workloads::AppInputPair> &pairs);
    void checkpoint(const SuiteRunner &runner,
                    const std::vector<workloads::WorkloadProfile> &suite,
                    workloads::InputSize size,
                    const std::vector<PairResult> &results) const;
    void finish(const SuiteRunner &runner,
                const std::vector<workloads::WorkloadProfile> &suite,
                workloads::InputSize size,
                const std::vector<PairResult> &results) const;
    /// @}

    /** Drops everything persisted at this path (current shard's
     *  files included). */
    void invalidate();

  private:
    CampaignIdentity identity(
        const SuiteRunner &runner,
        const std::vector<workloads::WorkloadProfile> &suite,
        workloads::InputSize size) const;
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_RESULT_CACHE_HH_
