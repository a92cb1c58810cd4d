/**
 * @file
 * Self-validating sweep-journal format (v2) and its offline
 * toolchain: scan, fsck/repair, and shard merge.
 *
 * A v2 journal is a text file of three parts:
 *
 *   1. a one-line campaign header binding the file to its campaign:
 *      format version, config fingerprint (hash of the runner's
 *      config key), pair-set digest (hash of the full canonical
 *      pair enumeration) and shard identity `K/N`;
 *   2. a CSV column-header line (doubles as a counter-set format
 *      check) whose last column is `record_hash`;
 *   3. one record per completed pair, in the shard's pair order,
 *      each line `payload,hash` where hash covers the campaign's
 *      config fingerprint plus the payload.
 *
 * Every record's provenance and integrity is therefore checkable
 * offline, with no access to the build that wrote it: the hash binds
 * the record both to its bytes (bit-flips) and to its campaign
 * (records smuggled in from a different configuration). Shards of one
 * campaign partition the canonical pair order round-robin -- record j
 * of shard K/N holds canonical index `j*N + (K-1)` -- so a merge can
 * reconstruct the exact unsharded journal without re-enumerating the
 * suite. The unsharded journal is simply shard 1/1; merging complete
 * shards 1..N/N reproduces it byte-identically.
 *
 * This header is deliberately independent of the runner: the merge
 * and fsck tools (and tests) operate on journal files at the line
 * level, never re-simulating or re-parsing results.
 */

#ifndef SPEC17_SUITE_JOURNAL_HH_
#define SPEC17_SUITE_JOURNAL_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spec17 {
namespace suite {

/** Journal format version this build reads and writes. */
inline constexpr unsigned kJournalFormatVersion = 2;

/** The @p sep-separated cells of @p text (an empty text is one empty
 *  cell; a trailing separator leaves a trailing empty cell). */
std::vector<std::string> splitCells(const std::string &text, char sep);

/** Parses a whole cell of digits in @p base (2..16): no sign, space
 *  or prefix. nullopt on anything else, including overflow. */
std::optional<std::uint64_t> parseUintCell(std::string_view cell,
                                           unsigned base = 10);

/** Parses a whole cell as a double; nullopt on an empty cell,
 *  trailing bytes or a range error. */
std::optional<double> parseDoubleCell(const std::string &cell);

/** FNV-1a over @p data, continuing from @p seed. */
std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/** 16-digit lowercase hex rendering of @p value. */
std::string hex16(std::uint64_t value);

/**
 * 16-hex-digit digest of a campaign's canonical item enumeration:
 * FNV-1a over `tag|name|name...` with every item name, pre-shard.
 * Shards of one campaign share it; journals of another suite, size
 * or co-run plan cannot be confused for its shards.
 */
std::string nameSetDigest(std::string_view tag,
                          const std::vector<std::string> &names);

/**
 * Content hash of one journal record: FNV-1a over the campaign's
 * config fingerprint, a separator, and the record payload. Binding
 * the config fingerprint in makes a record unverifiable outside its
 * campaign, not just outside its file.
 */
std::string recordHash(const std::string &config_fingerprint,
                       const std::string &payload);

/** The one-line campaign header leading every v2 journal. */
struct JournalHeader
{
    unsigned version = kJournalFormatVersion;
    /** Fingerprint of the runner config key (see configFingerprint). */
    std::string configFingerprint;
    /** Digest of the full canonical pair enumeration (pre-shard). */
    std::string pairsDigest;
    /** 1-based shard identity; 1/1 is the canonical unsharded file. */
    unsigned shardIndex = 1;
    unsigned shardCount = 1;

    /** Renders the header line (no trailing newline). */
    std::string serialize() const;

    /** Parses a header line; nullopt with @p reason set on any
     *  malformation (including a v1 journal's bare fingerprint). */
    static std::optional<JournalHeader> parse(const std::string &line,
                                              std::string &reason);

    /** "K/N" label, e.g. "2/4". */
    std::string shardLabel() const;
};

/**
 * Line-level scan of one journal file: header validation plus the
 * longest verifiable record prefix. The scan stops at the first
 * damaged record -- journals are prefix-valid by construction, so
 * everything after the first fault is untrusted.
 */
struct JournalScan
{
    /** File existed and was readable. */
    bool fileOk = false;
    /** Campaign header and column header parsed and validated. */
    bool headerOk = false;
    /** Diagnosis when !fileOk or !headerOk. */
    std::string headerError;
    JournalHeader header;
    /** Verbatim column-header line. */
    std::string columnHeader;
    /** Verbatim `payload,hash` record lines of the valid prefix. */
    std::vector<std::string> records;
    /** First CSV cell (pair name) of each valid record. */
    std::vector<std::string> names;
    /** A damaged record (and therefore suffix) was quarantined. */
    bool corrupt = false;
    /** 0-based index of the first damaged record. */
    std::size_t corruptRecord = 0;
    /** Diagnosis of the first damaged record. */
    std::string corruptReason;

    /** Fully intact: header valid and no quarantined suffix. */
    bool clean() const { return headerOk && !corrupt; }
};

/** Scans the journal at @p path (see JournalScan). */
JournalScan scanJournal(const std::string &path);

/** scanJournal() over in-memory content (@p file_ok mirrors a read
 *  failure; pass true when the bytes came from a real file). */
JournalScan scanJournalContent(const std::string &content, bool file_ok);

/**
 * Rewrites the journal at @p path down to its valid prefix (header
 * plus the records scanJournal() verified), atomically. Refuses --
 * returning false with @p error set -- when the header itself is
 * damaged (there is no trusted content to keep) or the file cannot
 * be rewritten. A clean journal is rewritten unchanged.
 */
bool repairJournal(const std::string &path, std::string &error);

/** Outcome of merging shard journals into one canonical journal. */
struct MergeOutcome
{
    bool ok = false;
    /** Diagnosis when !ok. */
    std::string error;
    /** Records written to the merged journal. */
    std::size_t recordsWritten = 0;
    /** Distinct shard files consumed. */
    std::size_t shardsMerged = 0;
    /** Canonical records dropped at the first gap (only ever non-zero
     *  when allow_partial accepted an incomplete shard set). */
    std::size_t recordsDropped = 0;
};

/**
 * Validates and fuses the shard journals at @p shard_paths into one
 * canonical (shard 1/1) journal at @p out_path, written atomically.
 *
 * Merge invariants, each enforced with a named error:
 *  - every input is a clean v2 journal (fsck/--repair first if not);
 *  - all inputs share config fingerprint, pair-set digest, shard
 *    count and column header (one campaign, one format);
 *  - duplicate shard files are tolerated only when byte-identical;
 *    a record claimed twice with different bytes is a divergent
 *    duplicate and fails the merge;
 *  - one pair name may occupy only one canonical slot (overlapping
 *    or mislabeled shards fail the merge);
 *  - the union of records must cover a gap-free canonical prefix;
 *    with @p allow_partial the journal is truncated at the first gap
 *    (reported via recordsDropped), otherwise a gap fails the merge.
 *
 * Merging the complete shards 1..N/N of a campaign reproduces the
 * unsharded journal byte-for-byte.
 */
MergeOutcome mergeJournals(const std::vector<std::string> &shard_paths,
                           const std::string &out_path,
                           bool allow_partial = false);

} // namespace suite
} // namespace spec17

#endif // SPEC17_SUITE_JOURNAL_HH_
