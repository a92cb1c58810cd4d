/**
 * @file
 * Journal-backed store for co-run campaigns: the CorunResult campaign
 * of suite::CampaignStore (suite/campaign_store.hh), which owns every
 * journal rule -- a campaign header binding config fingerprint, group
 * digest and shard identity, hash-bound records in canonical group
 * order, resume prefix replay, quarantine and atomic per-group
 * commits. This file adds the journal naming
 * (`<base>.corun.<size>[.shardKofN].csv`) and the CorunResult record
 * codec. Shards merge back byte-identically with `spec17 merge`.
 */

#ifndef SPEC17_CORUN_STORE_HH_
#define SPEC17_CORUN_STORE_HH_

#include <optional>
#include <string>
#include <vector>

#include "corun/plan.hh"
#include "corun/runner.hh"
#include "suite/campaign_store.hh"

namespace spec17 {
namespace corun {

/** Journal codec of one CorunResult per planned group. `members`
 *  packs one `:`-separated cell per context, `;`-joined. */
struct CorunResultCodec
{
    using Record = CorunResult;
    using Item = CorunGroup;
    static constexpr const char *kUnit = "group";

    static std::string columnHeader()
    {
        return "name,masks,members,record_hash";
    }
    static std::string serialize(const CorunResult &result);
    static std::optional<CorunResult> parse(const std::string &payload,
                                            std::string &reason);
    static std::string itemName(const CorunGroup &group)
    {
        return group.name();
    }
    static void bind(CorunResult &, const CorunGroup &) {}
};

/**
 * Journal-backed co-run result store. One campaign = one planned
 * group enumeration (pre-shard) under one runner config.
 */
class CorunStore : public suite::CampaignStore<CorunResultCodec>
{
  public:
    /** @param path journal base path ("" disables persistence);
     *  @param resume replay a partial journal instead of discarding. */
    explicit CorunStore(std::string path, bool resume = false);

    /** Journal file for the current shard:
     *  `<base>.corun.<size>[.shardKofN].csv` ("" when disabled). */
    std::string journalFile(const CorunRunner &runner) const;

    /**
     * Loads this shard's results for @p groups (the full canonical
     * enumeration, pre-shard) recorded under @p runner's fingerprint,
     * or runs the missing remainder and journals each completed
     * group, under the same rules as suite::ResultCache::runOrLoad.
     *
     * @p observer sees every result of the shard -- replayed and
     * simulated -- in canonical order; never invoked on a full hit.
     */
    std::vector<CorunResult> runOrLoad(
        const CorunRunner &runner, const std::vector<CorunGroup> &groups,
        const CorunRunner::GroupObserver &observer = {});

    /** Removes this path's co-run journals (current shard included). */
    void invalidate() const;
};

} // namespace corun
} // namespace spec17

#endif // SPEC17_CORUN_STORE_HH_
