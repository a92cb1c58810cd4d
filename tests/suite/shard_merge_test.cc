/**
 * @file
 * Sharded-campaign and journal-integrity tests: the shard partition,
 * the golden shard/merge round trip (merged shards byte-identical to
 * the unsharded journal), the journal-corruption matrix (torn tail,
 * bit flip, truncated header, duplicate record, overlapping and
 * divergent shards), resume refusal on config mismatch, and graceful
 * degradation under injected journal-I/O faults.
 */

#include "suite/journal.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "corun/plan.hh"
#include "corun/store.hh"
#include "suite/fault_injection.hh"
#include "suite/result_cache.hh"

namespace spec17 {
namespace suite {
namespace {

using workloads::InputSize;

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.sampleOps = 20000;
    options.warmupOps = 5000;
    return options;
}

std::string
tempBase(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_shard_" + tag;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
}

/** Offset just past the @p n-th newline of @p content. */
std::size_t
afterNewline(const std::string &content, std::size_t n)
{
    std::size_t offset = 0;
    for (std::size_t i = 0; i < n; ++i)
        offset = content.find('\n', offset) + 1;
    return offset;
}

// --- both campaign types, driven through their stores --------------

/** One result as its campaign's codec journals it. */
struct Row
{
    std::string payload;
    bool replayed = false;
};

template <typename Codec, typename Record>
std::vector<Row>
rowsOf(const std::vector<Record> &results)
{
    std::vector<Row> rows;
    for (const Record &result : results)
        rows.push_back({Codec::serialize(result), result.replayed});
    return rows;
}

/** Same sweep, different route: identical records. */
void
expectSameRows(const std::vector<Row> &got, const std::vector<Row> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
}

std::size_t
replays(const std::vector<Row> &rows)
{
    std::size_t count = 0;
    for (const Row &row : rows)
        count += row.replayed ? 1 : 0;
    return count;
}

/** How a test opens a campaign's store. */
struct StoreSetup
{
    bool resume = false;
    ShardSpec shard;
    JournalIoFaultInjector *faults = nullptr;
    unsigned jobs = 1;
};

template <typename Store>
Store
openStore(const std::string &base, const StoreSetup &setup)
{
    Store store(base, setup.resume);
    store.setShard(setup.shard);
    store.setIoFaults(setup.faults);
    return store;
}

corun::CorunOptions
corunOptions(unsigned jobs)
{
    corun::CorunOptions options;
    options.sampleOps = 20000;
    options.warmupOps = 5000;
    options.chunkOps = 2000;
    options.size = InputSize::Test;
    options.jobs = jobs;
    return options;
}

std::vector<corun::CorunGroup>
corunGroups()
{
    corun::PlanOptions plan;
    plan.apps = {"505.mcf_r", "541.leela_r", "548.exchange2_r"};
    return corun::planGroups(workloads::cpu2017Suite(), plan);
}

/**
 * One campaign type through its own store, so every journal test
 * below covers both record codecs: the suite sweep of PairResults
 * and a co-run pair sweep of CorunResults.
 */
struct Campaign
{
    const char *label;
    /** Records of the full, unsharded campaign. */
    std::size_t records;
    /** Runs or loads the campaign through a fresh store at @p base. */
    std::function<std::vector<Row>(const std::string &base,
                                   const StoreSetup &setup)>
        run;
    /** The journal file run() uses at @p base. */
    std::function<std::string(const std::string &base, ShardSpec shard)>
        journalFile;
};

std::vector<Campaign>
campaigns()
{
    Campaign suite_sweep{
        "suite", 29,
        [](const std::string &base, const StoreSetup &setup) {
            RunnerOptions options = fastOptions();
            options.jobs = setup.jobs;
            const SuiteRunner runner(options);
            ResultCache cache = openStore<ResultCache>(base, setup);
            return rowsOf<PairResultCodec>(cache.runOrLoad(
                runner, workloads::cpu2006Suite(), InputSize::Test));
        },
        [](const std::string &base, ShardSpec shard) {
            ResultCache cache(base);
            cache.setShard(shard);
            return cache.journalFile(workloads::cpu2006Suite(),
                                     InputSize::Test);
        }};
    Campaign corun_sweep{
        "corun", corunGroups().size(),
        [](const std::string &base, const StoreSetup &setup) {
            const corun::CorunRunner runner(corunOptions(setup.jobs));
            corun::CorunStore store =
                openStore<corun::CorunStore>(base, setup);
            return rowsOf<corun::CorunResultCodec>(
                store.runOrLoad(runner, corunGroups()));
        },
        [](const std::string &base, ShardSpec shard) {
            corun::CorunStore store(base);
            store.setShard(shard);
            return store.journalFile(corun::CorunRunner(corunOptions(1)));
        }};
    return {suite_sweep, corun_sweep};
}

std::string
campaignBase(const Campaign &campaign, const char *tag)
{
    return tempBase(tag) + "_" + campaign.label;
}

// --- synthetic journals for the corruption matrix ------------------

const char *const kColumns = "name,value,record_hash";

std::string
fp(const char *campaign)
{
    return hex16(fnv1a(campaign));
}

std::string
record(const std::string &config, const std::string &payload)
{
    return payload + "," + recordHash(config, payload);
}

std::string
syntheticJournal(const std::string &config, unsigned k, unsigned n,
                 const std::vector<std::string> &payloads)
{
    JournalHeader header;
    header.configFingerprint = config;
    header.pairsDigest = fp("pairs");
    header.shardIndex = k;
    header.shardCount = n;
    std::string content = header.serialize() + "\n" + kColumns + "\n";
    for (const auto &payload : payloads)
        content += record(config, payload) + "\n";
    return content;
}

// --- shard partition -----------------------------------------------

TEST(ShardSpec, ParsesValidAndRejectsMalformedLabels)
{
    const auto two_of_four = ShardSpec::parse("2/4");
    ASSERT_TRUE(two_of_four.has_value());
    EXPECT_EQ(two_of_four->index, 2u);
    EXPECT_EQ(two_of_four->count, 4u);
    EXPECT_TRUE(two_of_four->active());
    EXPECT_EQ(two_of_four->label(), "2/4");

    const auto whole = ShardSpec::parse("1/1");
    ASSERT_TRUE(whole.has_value());
    EXPECT_FALSE(whole->active());

    for (const char *bad : {"", "3", "0/4", "5/4", "3/0", "a/b",
                            "1/2/3", "-1/4", "1/ 4"})
        EXPECT_FALSE(ShardSpec::parse(bad).has_value()) << bad;
}

TEST(ShardSpec, RoundRobinPartitionCoversEveryPairExactlyOnce)
{
    const auto pairs = enumeratePairs(workloads::cpu2006Suite(),
                                      InputSize::Test);
    ASSERT_EQ(pairs.size(), 29u);
    std::vector<std::string> seen;
    for (unsigned k = 1; k <= 4; ++k) {
        const auto slice = shardSlice(pairs, {k, 4});
        // Round robin balances the slice sizes to within one pair.
        EXPECT_EQ(slice.size(), k == 1 ? 8u : 7u);
        for (std::size_t j = 0; j < slice.size(); ++j) {
            // Record j of shard K/N is canonical pair j*N + (K-1) --
            // the arithmetic the merge relies on.
            EXPECT_EQ(slice[j].displayName(),
                      pairs[j * 4 + (k - 1)].displayName());
            seen.push_back(slice[j].displayName());
        }
    }
    EXPECT_EQ(seen.size(), pairs.size());

    const auto whole = shardSlice(pairs, {1, 1});
    EXPECT_EQ(whole.size(), pairs.size());
}

// --- golden round trip ---------------------------------------------

void
mergedShardsReproduceUnshardedJournal(const Campaign &campaign)
{
    // The canonical journal: one unsharded parallel sweep.
    const std::string canonical_base =
        campaignBase(campaign, "golden_canonical");
    const std::string canonical_file =
        campaign.journalFile(canonical_base, {});
    std::remove(canonical_file.c_str());
    const auto full = campaign.run(canonical_base, {false, {}, nullptr, 8});
    ASSERT_EQ(full.size(), campaign.records);

    // Four shards, deliberately run out of order: shard identity, not
    // execution order, determines the merge result.
    const std::string base = campaignBase(campaign, "golden_shards");
    std::vector<std::string> shard_files(4);
    std::size_t sliced = 0;
    for (unsigned k : {3u, 1u, 4u, 2u}) {
        const ShardSpec shard{k, 4};
        shard_files[k - 1] = campaign.journalFile(base, shard);
        std::remove(shard_files[k - 1].c_str());
        sliced += campaign.run(base, {false, shard, nullptr, 8}).size();
        EXPECT_NE(shard_files[k - 1], canonical_file);
    }
    EXPECT_EQ(sliced, full.size());

    // Merge in shuffled input order; the outcome must not care.
    const std::string merged =
        campaignBase(campaign, "golden_merged") + ".csv";
    const auto outcome = mergeJournals(
        {shard_files[2], shard_files[0], shard_files[3],
         shard_files[1]},
        merged);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.shardsMerged, 4u);
    EXPECT_EQ(outcome.recordsWritten, full.size());
    EXPECT_EQ(outcome.recordsDropped, 0u);
    EXPECT_EQ(fileBytes(merged), fileBytes(canonical_file));
    EXPECT_FALSE(fileBytes(merged).empty());

    // A duplicate byte-identical shard input is tolerated.
    const auto again = mergeJournals(
        {shard_files[0], shard_files[1], shard_files[2],
         shard_files[3], shard_files[1]},
        merged);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.shardsMerged, 4u);
    EXPECT_EQ(fileBytes(merged), fileBytes(canonical_file));

    // The merged journal is a full cache hit for an unsharded run.
    std::rename(merged.c_str(), canonical_file.c_str());
    const auto replayed = campaign.run(canonical_base, {});
    expectSameRows(replayed, full);
    EXPECT_EQ(replays(replayed), full.size());

    std::remove(canonical_file.c_str());
    for (const std::string &file : shard_files)
        std::remove(file.c_str());
}

TEST(ShardMerge, MergedShardsReproduceUnshardedJournalByteExact)
{
    for (const Campaign &campaign : campaigns()) {
        SCOPED_TRACE(campaign.label);
        mergedShardsReproduceUnshardedJournal(campaign);
    }
}

// --- corruption matrix ---------------------------------------------

TEST(JournalFsck, TornTailIsQuarantinedAndRepairDropsOnlyTheSuffix)
{
    const std::string path = tempBase("torn") + ".csv";
    const std::string config = fp("campaign-a");
    const std::string intact = syntheticJournal(
        config, 1, 1, {"p01,42", "p02,43", "p03,44"});
    // Tear mid-way through the third record (a crash mid-append).
    writeFile(path, intact.substr(0, afterNewline(intact, 4) + 4));

    const auto scan = scanJournal(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.corruptRecord, 2u);
    EXPECT_NE(scan.corruptReason.find("hash"), std::string::npos);
    EXPECT_FALSE(scan.clean());

    std::string error;
    ASSERT_TRUE(repairJournal(path, error)) << error;
    const auto repaired = scanJournal(path);
    EXPECT_TRUE(repaired.clean());
    EXPECT_EQ(repaired.records.size(), 2u);
    // Repair keeps exactly the valid prefix, byte for byte.
    EXPECT_EQ(fileBytes(path), intact.substr(0, afterNewline(intact, 4)));
    std::remove(path.c_str());
}

TEST(JournalFsck, MidFileBitFlipIsQuarantinedByTheRecordHash)
{
    const std::string path = tempBase("bitflip") + ".csv";
    const std::string config = fp("campaign-a");
    std::string content = syntheticJournal(
        config, 1, 1, {"p01,42", "p02,43", "p03,44"});
    // Flip one bit inside the second record's payload.
    const std::size_t offset = afterNewline(content, 3) + 1;
    content[offset] = static_cast<char>(content[offset] ^ 0x04);
    writeFile(path, content);

    const auto scan = scanJournal(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.corruptRecord, 1u);
    EXPECT_NE(scan.corruptReason.find("hash mismatch"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(JournalFsck, TruncatedHeaderIsUnrepairable)
{
    const std::string path = tempBase("header") + ".csv";
    const std::string config = fp("campaign-a");
    const std::string intact =
        syntheticJournal(config, 1, 1, {"p01,42"});
    writeFile(path, intact.substr(0, 10));

    const auto scan = scanJournal(path);
    EXPECT_TRUE(scan.fileOk);
    EXPECT_FALSE(scan.headerOk);
    EXPECT_FALSE(scan.headerError.empty());

    std::string error;
    EXPECT_FALSE(repairJournal(path, error));
    EXPECT_NE(error.find("unrepairable"), std::string::npos);

    // A legacy (v1) journal -- a bare fingerprint line -- is equally
    // untrusted: no campaign header, no verification.
    writeFile(path, config + "\nname,value\np01,42\n");
    const auto legacy = scanJournal(path);
    EXPECT_FALSE(legacy.headerOk);
    EXPECT_NE(legacy.headerError.find("legacy"), std::string::npos);
    std::remove(path.c_str());
}

TEST(JournalFsck, DuplicateRecordIsQuarantined)
{
    const std::string path = tempBase("dup") + ".csv";
    const std::string config = fp("campaign-a");
    writeFile(path, syntheticJournal(
                        config, 1, 1, {"p01,42", "p02,43", "p01,42"}));

    const auto scan = scanJournal(path);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_EQ(scan.records.size(), 2u);
    EXPECT_NE(scan.corruptReason.find("duplicate record"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(JournalMerge, RefusesCorruptInputsAndPointsAtFsck)
{
    const std::string good = tempBase("mc_good") + ".csv";
    const std::string bad = tempBase("mc_bad") + ".csv";
    const std::string out = tempBase("mc_out") + ".csv";
    const std::string config = fp("campaign-a");
    writeFile(good, syntheticJournal(config, 1, 2, {"p01,42"}));
    const std::string intact =
        syntheticJournal(config, 2, 2, {"p02,43"});
    writeFile(bad, intact.substr(0, intact.size() - 5));

    const auto outcome = mergeJournals({good, bad}, out);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("fsck"), std::string::npos);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(JournalMerge, RefusesShardsFromDifferentCampaigns)
{
    const std::string a = tempBase("camp_a") + ".csv";
    const std::string b = tempBase("camp_b") + ".csv";
    const std::string out = tempBase("camp_out") + ".csv";
    writeFile(a, syntheticJournal(fp("campaign-a"), 1, 2, {"p01,42"}));
    writeFile(b, syntheticJournal(fp("campaign-b"), 2, 2, {"p02,43"}));

    const auto outcome = mergeJournals({a, b}, out);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("different campaigns"),
              std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(JournalMerge, DetectsDivergentDuplicateShards)
{
    const std::string a = tempBase("div_a") + ".csv";
    const std::string b = tempBase("div_b") + ".csv";
    const std::string out = tempBase("div_out") + ".csv";
    const std::string config = fp("campaign-a");
    writeFile(a, syntheticJournal(config, 1, 2, {"p01,42", "p03,44"}));
    writeFile(b, syntheticJournal(config, 1, 2, {"p01,42", "p03,99"}));

    const auto outcome = mergeJournals({a, b}, out);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("divergent duplicate"),
              std::string::npos);
    EXPECT_NE(outcome.error.find("record 1"), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(JournalMerge, DetectsOverlappingShards)
{
    const std::string a = tempBase("ovl_a") + ".csv";
    const std::string b = tempBase("ovl_b") + ".csv";
    const std::string out = tempBase("ovl_out") + ".csv";
    const std::string config = fp("campaign-a");
    // Pair p01 claimed at canonical index 0 (record 0 of shard 1/2)
    // and again at canonical index 1 (record 0 of shard 2/2).
    writeFile(a, syntheticJournal(config, 1, 2, {"p01,42"}));
    writeFile(b, syntheticJournal(config, 2, 2, {"p01,42"}));

    const auto outcome = mergeJournals({a, b}, out);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("overlapping shards"),
              std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(JournalMerge, GapFailsUnlessPartialMergeIsRequested)
{
    const std::string a = tempBase("gap_a") + ".csv";
    const std::string b = tempBase("gap_b") + ".csv";
    const std::string out = tempBase("gap_out") + ".csv";
    const std::string config = fp("campaign-a");
    // Shard 1/2 finished 3 pairs (canonical 0, 2, 4); shard 2/2 only
    // 1 (canonical 1). Canonical 3 is a gap.
    writeFile(a, syntheticJournal(config, 1, 2,
                                  {"p01,42", "p03,44", "p05,46"}));
    writeFile(b, syntheticJournal(config, 2, 2, {"p02,43"}));

    const auto strict = mergeJournals({a, b}, out);
    EXPECT_FALSE(strict.ok);
    EXPECT_NE(strict.error.find("gap at canonical record 3"),
              std::string::npos);
    EXPECT_NE(strict.error.find("2/2"), std::string::npos);

    const auto partial = mergeJournals({a, b}, out,
                                       /*allow_partial=*/true);
    ASSERT_TRUE(partial.ok) << partial.error;
    EXPECT_EQ(partial.recordsWritten, 3u);
    EXPECT_EQ(partial.recordsDropped, 1u);
    const auto scan = scanJournal(out);
    EXPECT_TRUE(scan.clean());
    ASSERT_EQ(scan.names.size(), 3u);
    EXPECT_EQ(scan.names[0], "p01");
    EXPECT_EQ(scan.names[1], "p02");
    EXPECT_EQ(scan.names[2], "p03");
    EXPECT_EQ(scan.header.shardLabel(), "1/1");
    std::remove(a.c_str());
    std::remove(b.c_str());
    std::remove(out.c_str());
}

// --- resume safety -------------------------------------------------

TEST(ResultCacheV2, ResumeRefusesJournalFromAnotherConfig)
{
    const std::string base = tempBase("resume_mismatch");
    const auto &suite = workloads::cpu2006Suite();
    SuiteRunner original(fastOptions());
    ResultCache cache(base);
    cache.invalidate();
    cache.runOrLoad(original, suite, InputSize::Test);

    RunnerOptions changed = fastOptions();
    changed.sampleOps = 30000;
    SuiteRunner other(changed);
    ResultCache resuming(base, /*resume=*/true);
    EXPECT_THROW(resuming.runOrLoad(other, suite, InputSize::Test),
                 JournalConfigMismatchError);
    try {
        resuming.runOrLoad(other, suite, InputSize::Test);
    } catch (const JournalConfigMismatchError &e) {
        EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                  std::string::npos);
    }

    // Without --resume the mismatch is an ordinary miss: the sweep
    // recomputes and overwrites.
    ResultCache plain(base);
    const auto rerun = plain.runOrLoad(other, suite, InputSize::Test);
    EXPECT_EQ(rerun.size(), 29u);
    EXPECT_FALSE(rerun.front().replayed);
    cache.invalidate();
}

// --- journal-I/O fault injection -----------------------------------

void
enospcDemotesToWarnAndContinue(const Campaign &campaign)
{
    const std::string base = campaignBase(campaign, "enospc");
    const std::string file = campaign.journalFile(base, {});
    std::remove(file.c_str());

    ScriptedJournalIoFaults faults;
    faults.enospcFrom(0);
    const auto results = campaign.run(base, {false, {}, &faults});
    // The sweep still returns every result; only persistence is lost.
    EXPECT_EQ(results.size(), campaign.records);
    EXPECT_FALSE(scanJournal(file).fileOk);
    // One failed quiet commit demotes the rest of the sweep to
    // memory-only; the loud final commit is still attempted.
    EXPECT_EQ(faults.writesConsulted(), 2u);

    // With the fault gone the next run simulates afresh and persists.
    const auto rerun = campaign.run(base, {});
    expectSameRows(rerun, results);
    EXPECT_EQ(replays(rerun), 0u);
    EXPECT_TRUE(scanJournal(file).clean());
    std::remove(file.c_str());
}

TEST(JournalIoFaults, EnospcDemotesToWarnAndContinue)
{
    for (const Campaign &campaign : campaigns()) {
        SCOPED_TRACE(campaign.label);
        enospcDemotesToWarnAndContinue(campaign);
    }
}

void
tornWriteIsQuarantinedAndRecomputedOnResume(const Campaign &campaign)
{
    // Reference run: the clean journal bytes (deterministic).
    const std::string reference = campaignBase(campaign, "torn_ref");
    const std::string reference_file = campaign.journalFile(reference, {});
    std::remove(reference_file.c_str());
    const auto clean = campaign.run(reference, {});
    const std::string clean_bytes = fileBytes(reference_file);
    ASSERT_FALSE(clean_bytes.empty());
    // Keep the header, the column header, 4 records, and a torn
    // fragment of record 5.
    const std::size_t keep = afterNewline(clean_bytes, 6) + 20;

    const std::string base = campaignBase(campaign, "torn");
    const std::string file = campaign.journalFile(base, {});
    std::remove(file.c_str());
    ScriptedJournalIoFaults faults;
    // The quiet per-record commits (0..records-1) succeed; the final
    // loud commit is the one a power cut tears.
    faults.tornWriteAt(static_cast<unsigned>(campaign.records), keep);
    expectSameRows(campaign.run(base, {false, {}, &faults}), clean);

    const auto scan = scanJournal(file);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_EQ(scan.records.size(), 4u);

    // Resume: the 4 committed records replay, the damaged suffix is
    // recomputed, and the final commit heals the journal completely.
    const auto recovered = campaign.run(base, {true, {}});
    expectSameRows(recovered, clean);
    EXPECT_EQ(replays(recovered), 4u);
    EXPECT_EQ(fileBytes(file), clean_bytes);

    std::remove(reference_file.c_str());
    std::remove(file.c_str());
}

TEST(JournalIoFaults, TornWriteIsQuarantinedAndRecomputedOnResume)
{
    for (const Campaign &campaign : campaigns()) {
        SCOPED_TRACE(campaign.label);
        tornWriteIsQuarantinedAndRecomputedOnResume(campaign);
    }
}

void
shortReadAndBitFlipOnReopenNeverYieldGarbage(const Campaign &campaign)
{
    const std::string base = campaignBase(campaign, "reopen");
    const std::string file = campaign.journalFile(base, {});
    std::remove(file.c_str());
    const auto clean = campaign.run(base, {});
    const std::string clean_bytes = fileBytes(file);

    // Short read: only part of record 5 arrives; the prefix replays,
    // the rest re-simulates, results are identical.
    {
        ScriptedJournalIoFaults faults;
        faults.shortReadNext(afterNewline(clean_bytes, 6) + 20);
        const auto results = campaign.run(base, {true, {}, &faults});
        expectSameRows(results, clean);
        EXPECT_EQ(replays(results), 4u);
        EXPECT_EQ(faults.readsConsulted(), 1u);
    }

    // Bit flip inside record 2: the hash catches it, records 0-1
    // replay, everything from the flip on re-simulates.
    {
        ScriptedJournalIoFaults faults;
        faults.bitFlipNext(afterNewline(clean_bytes, 4) + 10, 2);
        const auto results = campaign.run(base, {true, {}, &faults});
        expectSameRows(results, clean);
        EXPECT_EQ(replays(results), 2u);
    }

    // Bit flip inside the campaign header: nothing is trusted, the
    // whole sweep re-simulates -- still correct, never garbage.
    {
        ScriptedJournalIoFaults faults;
        faults.bitFlipNext(2, 0);
        const auto results = campaign.run(base, {true, {}, &faults});
        expectSameRows(results, clean);
        EXPECT_EQ(replays(results), 0u);
    }
    // Every recovery path ends with the journal healed on disk.
    EXPECT_EQ(fileBytes(file), clean_bytes);
    std::remove(file.c_str());
}

TEST(JournalIoFaults, ShortReadAndBitFlipOnReopenNeverYieldGarbage)
{
    for (const Campaign &campaign : campaigns()) {
        SCOPED_TRACE(campaign.label);
        shortReadAndBitFlipOnReopenNeverYieldGarbage(campaign);
    }
}

} // namespace
} // namespace suite
} // namespace spec17
