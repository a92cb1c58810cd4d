/**
 * @file
 * The one journal-backed campaign store. Every campaign -- a suite
 * sweep of PairResults, a co-run sweep of CorunResults -- persists
 * through CampaignStore<Codec>, which owns the v2 journal rules
 * (docs/journal_format.md) and leaves only the record layout to a
 * codec:
 *
 *  - the campaign header is classified against the expected config
 *    fingerprint, item-set digest, shard and column header; another
 *    config's journal under resume throws JournalConfigMismatchError,
 *    anything else foreign or damaged is a miss;
 *  - damaged tails are quarantined and the order-verified record
 *    prefix replays; a journal is complete -- a hit even without
 *    resume -- only when every expected record is present, parses,
 *    matches canonical order and nothing was quarantined, so anything
 *    less is rewritten clean by the next sweep;
 *  - the full journal image is committed after every completed item
 *    through writeFileAtomic(), so readers only ever see a complete
 *    prefix; a failed commit (ENOSPC, an unwritable location, an
 *    injected I/O fault) demotes to warn-and-continue.
 *
 * The one sweep loop over those journals is sweepAll(): M campaigns
 * of one codec (a suite or co-run sweep, or the M points of an
 * explore fan-out) share a single pass over the item slice.
 *
 * A codec is a struct with `Record` and `Item` types (the record has
 * `name` and `replayed` members), the item noun `kUnit` for log
 * lines, `columnHeader()` (ending in `record_hash`),
 * `serialize(record)` (the payload, no hash cell),
 * `parse(payload, reason)` (nullopt with @p reason set on damage),
 * `itemName(item)` (the record name the item journals under) and
 * `bind(record, item)` (re-attaches what the payload omits).
 */

#ifndef SPEC17_SUITE_CAMPAIGN_STORE_HH_
#define SPEC17_SUITE_CAMPAIGN_STORE_HH_

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "suite/fault_injection.hh"
#include "suite/journal.hh"
#include "suite/runner.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace spec17 {
namespace suite {

/**
 * Thrown when resume finds a journal written under a different
 * config key: replaying it would splice results from one campaign
 * into another, so the sweep refuses loudly instead of guessing.
 */
class JournalConfigMismatchError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** 16-hex-digit FNV-1a fingerprint of @p runner's config key. */
template <typename Runner>
std::string
configFingerprint(const Runner &runner)
{
    return hex16(fnv1a(runner.configKey()));
}

/** What binds one journal file to one campaign. */
struct CampaignIdentity
{
    /** Journal file; empty disables persistence. */
    std::string file;
    /** configFingerprint() of the campaign's runner. */
    std::string fingerprint;
    /** Digest of the full canonical item enumeration (pre-shard). */
    std::string digest;
};

/** The campaign scope every sweep engine shares. */
struct CampaignOptions
{
    /** Replay a partial journal instead of discarding it. */
    bool resume = false;
    /** The slice of the item enumeration to run, journaled to a
     *  per-shard file that `spec17 merge` fuses back. */
    ShardSpec shard;
};

/** Journal-backed store of one campaign type (see the file comment
 *  for the @p Codec contract). */
template <typename Codec>
class CampaignStore
{
  public:
    using Record = typename Codec::Record;
    using Item = typename Codec::Item;

    /** Sees each record of a sweep with its canonical index and the
     *  slice size, in canonical order, never concurrently. */
    using Observer = std::function<void(const Record &, std::size_t index,
                                        std::size_t total)>;

    /** The journal-replayed state a sweep session starts from. */
    struct SweepPrefix
    {
        /** Order-verified replayed prefix, bound to its items. */
        std::vector<Record> rows;
        /** Every expected item was already journaled: the session
         *  has nothing to run. */
        bool complete = false;
    };

    /** One campaign of a sweepAll() pass; the store is borrowed and
     *  the observer optional. */
    struct Campaign
    {
        CampaignStore *store = nullptr;
        CampaignIdentity id;
        Observer observer;
    };

    /** @param path journal base path; empty disables persistence.
     *  @param resume, @p shard see CampaignOptions. */
    CampaignStore(std::string path, bool resume, ShardSpec shard)
        : shard_(shard), path_(std::move(path)), resume_(resume)
    {
    }

    /** Test-only journal-I/O injection hook; borrowed pointer,
     *  nullptr in production. */
    void setIoFaults(JournalIoFaultInjector *faults) { ioFaults_ = faults; }

    /**
     * The one journaled sweep loop: every campaign sweeps @p slice (a
     * shard's items, in canonical order). Each journal is opened and
     * its replayed prefix reported to its observer; the ordered pool
     * (@p jobs workers) starts at the first index any campaign still
     * needs and calls `work(item, active)` -- `active` lists the
     * campaigns missing that index -- for one optional Record per
     * campaign. Fresh records are checkpointed and observed in
     * canonical order, and incomplete journals commit loudly at the
     * end; a complete journal gets no observer calls. Returns one
     * record vector per campaign.
     */
    template <typename Work>
    static std::vector<std::vector<Record>>
    sweepAll(const std::vector<Campaign> &campaigns,
             const std::vector<Item> &slice, unsigned jobs, Work work)
    {
        const std::size_t m = campaigns.size();
        const std::size_t total = slice.size();
        std::vector<std::vector<Record>> out(m);
        std::vector<char> complete(m, 0);
        // First index each campaign needs, fixed before the pool
        // starts: the commit hook grows `out` while workers run.
        std::vector<std::size_t> have(m, total);
        std::size_t start = total;
        for (std::size_t p = 0; p < m; ++p) {
            const Campaign &campaign = campaigns[p];
            SweepPrefix prefix = campaign.store->open(campaign.id, slice);
            out[p] = std::move(prefix.rows);
            complete[p] = prefix.complete;
            if (prefix.complete)
                continue;
            have[p] = out[p].size();
            start = std::min(start, have[p]);
            if (campaign.observer) {
                for (std::size_t i = 0; i < have[p]; ++i)
                    campaign.observer(out[p][i], i, total);
            }
        }
        using Row = std::vector<std::optional<Record>>;
        runOrderedPool<Row>(
            total - start, jobs,
            [&](std::size_t k) {
                std::vector<std::size_t> active;
                for (std::size_t p = 0; p < m; ++p) {
                    if (have[p] <= start + k)
                        active.push_back(p);
                }
                return work(slice[start + k], active);
            },
            [&](const Row &row, std::size_t k) {
                for (std::size_t p = 0; p < m; ++p) {
                    if (!row[p])
                        continue;
                    const Campaign &campaign = campaigns[p];
                    out[p].push_back(*row[p]);
                    campaign.store->save(campaign.id, out[p], true);
                    if (campaign.observer)
                        campaign.observer(*row[p], start + k, total);
                }
            });

        // The loud commit doubles as the failure report for
        // unwritable journal locations.
        for (std::size_t p = 0; p < m; ++p) {
            if (!complete[p])
                campaigns[p].store->save(campaigns[p].id, out[p], false);
        }
        return out;
    }

    /** sweepAll() for this one campaign, with `work(item)` returning
     *  the item's Record. */
    template <typename Work>
    std::vector<Record> sweep(const CampaignIdentity &id,
                              const std::vector<Item> &slice,
                              const Observer &observer, unsigned jobs,
                              Work work)
    {
        return std::move(
            sweepAll({{this, id, observer}}, slice, jobs,
                     [&work](const Item &item,
                             const std::vector<std::size_t> &) {
                         return std::vector<std::optional<Record>>{
                             work(item)};
                     })
                .front());
    }

  protected:
    /** `<path>.<section>[.shardKofN].csv`, or "" when persistence is
     *  off. */
    std::string sectionFile(const std::string &section) const
    {
        if (path_.empty())
            return "";
        std::string name = path_ + "." + section;
        if (shard_.active())
            name += ".shard" + std::to_string(shard_.index) + "of"
                + std::to_string(shard_.count);
        return name + ".csv";
    }

    /** Removes each section's unsharded and current-shard journal,
     *  temp files included. */
    void removeSections(const std::vector<std::string> &sections) const
    {
        if (path_.empty())
            return;
        for (const std::string &section : sections) {
            for (const std::string &file :
                 {path_ + "." + section + ".csv", sectionFile(section)}) {
                std::remove(file.c_str());
                std::remove((file + ".tmp").c_str());
            }
        }
    }

    /**
     * Opens a sweep session over @p slice (the shard's items, in
     * canonical order) and resets the per-sweep commit state: a
     * complete journal returns every row with complete=true even
     * without resume; a partial prefix is returned only with resume.
     */
    SweepPrefix open(const CampaignIdentity &id,
                     const std::vector<Item> &slice)
    {
        journalWarned_ = false;
        commitIndex_ = 0;
        SweepPrefix prefix;
        const std::optional<JournalScan> scan = readJournal(id);
        if (!scan)
            return prefix;
        // Hash-verified records still cross the codec and the order
        // check: only an order-matching prefix is a checkpoint of
        // *this* sweep.
        bool ordered = true;
        for (std::size_t i = 0;
             i < scan->records.size() && i < slice.size(); ++i) {
            const std::string &record = scan->records[i];
            std::string reason;
            std::optional<Record> row = Codec::parse(
                record.substr(0, record.rfind(',')), reason);
            if (!row) {
                warn("quarantining journal tail (", reason, ") after ",
                     i, " valid row(s)");
                ordered = false;
                break;
            }
            const std::string expected = Codec::itemName(slice[i]);
            if (row->name != expected) {
                warn("journal row ", i, " names '", row->name,
                     "' where '", expected,
                     "' was expected; discarding the rest");
                ordered = false;
                break;
            }
            Codec::bind(*row, slice[i]);
            row->replayed = true;
            prefix.rows.push_back(std::move(*row));
        }
        prefix.complete = ordered && !scan->corrupt
            && prefix.rows.size() == slice.size()
            && scan->records.size() == slice.size();
        if (!prefix.complete && !resume_)
            prefix.rows.clear();
        else if (!prefix.complete && !prefix.rows.empty())
            inform("resuming sweep from journal: ", prefix.rows.size(),
                   " ", Codec::kUnit,
                   "(s) replayed without re-simulation");
        return prefix;
    }

    /** Atomically commits @p rows as the journal's content; quiet
     *  commits warn once per sweep. */
    void save(const CampaignIdentity &id, const std::vector<Record> &rows,
              bool quiet) const
    {
        if (id.file.empty() || (quiet && journalWarned_))
            return;
        JournalHeader header;
        header.configFingerprint = id.fingerprint;
        header.pairsDigest = id.digest;
        header.shardIndex = shard_.index;
        header.shardCount = shard_.count;
        std::string image =
            header.serialize() + "\n" + Codec::columnHeader() + "\n";
        for (const Record &row : rows) {
            const std::string payload = Codec::serialize(row);
            image += payload + "," + recordHash(id.fingerprint, payload)
                + "\n";
        }
        commit(id.file, image);
    }

    /** The item slice this store's sweeps run and journal. */
    ShardSpec shard_;

  private:
    /** Reads @p id's journal (consulting the read-fault hook); the
     *  scan when it belongs to this campaign, else nullopt. */
    std::optional<JournalScan> readJournal(const CampaignIdentity &id)
    {
        std::string content;
        if (id.file.empty() || !readFile(id.file, content))
            return std::nullopt;
        if (ioFaults_) {
            const auto fault = ioFaults_->onJournalRead(id.file);
            using Kind = JournalIoFaultInjector::ReadFault::Kind;
            if (fault.kind == Kind::ShortRead
                && fault.keepBytes < content.size())
                content.resize(fault.keepBytes);
            else if (fault.kind == Kind::BitFlip
                     && fault.offset < content.size())
                content[fault.offset] = static_cast<char>(
                    content[fault.offset] ^ (1 << (fault.bit % 8)));
        }
        JournalScan scan = scanJournalContent(content, true);
        if (!scan.headerOk) {
            warn("ignoring journal at ", id.file, ": ", scan.headerError);
            return std::nullopt;
        }
        if (scan.header.configFingerprint != id.fingerprint) {
            if (!resume_)
                return std::nullopt;
            throw JournalConfigMismatchError(
                "refusing to resume from " + id.file
                + ": journal was written under config "
                + scan.header.configFingerprint
                + " but this invocation has config " + id.fingerprint
                + " (rerun without --resume to recompute and "
                  "overwrite, or point the cache elsewhere)");
        }
        // Another enumeration, shard or record layout: a miss, not
        // damage.
        if (scan.header.pairsDigest != id.digest
            || scan.header.shardIndex != shard_.index
            || scan.header.shardCount != shard_.count
            || scan.columnHeader != Codec::columnHeader())
            return std::nullopt;
        if (scan.corrupt)
            warn("quarantining journal tail of ", id.file, " (",
                 scan.corruptReason, ") after ", scan.records.size(),
                 " valid record(s)");
        return scan;
    }

    /** Commits @p image to @p file, consulting the write-fault hook. */
    void commit(const std::string &file, const std::string &image) const
    {
        JournalIoFaultInjector::WriteFault fault;
        if (ioFaults_)
            fault = ioFaults_->onJournalWrite(file, commitIndex_);
        ++commitIndex_;
        using Kind = JournalIoFaultInjector::WriteFault::Kind;
        if (fault.kind == Kind::Enospc) {
            // The previous journal survives; the uncommitted items
            // are recomputed on resume.
            warn("cannot commit journal to ", file,
                 ": out of space (injected); continuing without "
                 "checkpoint");
            journalWarned_ = true;
        } else if (fault.kind == Kind::TornWrite) {
            // A crash mid-write: only a byte prefix of the new image
            // reaches the file, quarantined on reopen.
            writeFileAtomic(file, image.substr(0, fault.keepBytes));
            warn("torn write to journal ", file,
                 " (injected); damaged tail will be quarantined on "
                 "reopen");
            journalWarned_ = true;
        } else if (!writeFileAtomic(file, image)) {
            journalWarned_ = true;
        }
    }

    std::string path_;
    bool resume_ = false;
    JournalIoFaultInjector *ioFaults_ = nullptr;
    /** Commit counter within the current sweep (I/O fault keying). */
    mutable unsigned commitIndex_ = 0;
    /** Set after a failed commit: the sweep's remaining quiet
     *  checkpoints are skipped instead of warning once per item. */
    mutable bool journalWarned_ = false;
};

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_CAMPAIGN_STORE_HH_
