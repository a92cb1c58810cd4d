#include "suite/journal.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "util/atomic_file.hh"

namespace spec17 {
namespace suite {

namespace {

/** Cells of one CSV line (trailing empty cell preserved). */
std::size_t
countCells(const std::string &line)
{
    std::size_t cells = 1;
    for (char c : line)
        cells += c == ',';
    return cells;
}

bool
isHex16(const std::string &text)
{
    if (text.size() != 16)
        return false;
    for (char c : text) {
        if (!std::isxdigit(static_cast<unsigned char>(c))
            || (std::isalpha(static_cast<unsigned char>(c))
                && !std::islower(static_cast<unsigned char>(c))))
            return false;
    }
    return true;
}

std::optional<unsigned>
parseUnsigned(const std::string &cell)
{
    const auto value = parseUintCell(cell);
    if (!value || *value > 0xffffffffu)
        return std::nullopt;
    return static_cast<unsigned>(*value);
}

} // namespace

std::vector<std::string>
splitCells(const std::string &text, char sep)
{
    std::vector<std::string> cells;
    std::size_t start = 0;
    for (std::size_t end = text.find(sep); end != std::string::npos;
         start = end + 1, end = text.find(sep, start))
        cells.push_back(text.substr(start, end - start));
    cells.push_back(text.substr(start));
    return cells;
}

std::optional<std::uint64_t>
parseUintCell(std::string_view cell, unsigned base)
{
    if (cell.empty())
        return std::nullopt;
    std::uint64_t value = 0;
    for (char c : cell) {
        const unsigned char u = static_cast<unsigned char>(c);
        unsigned digit = base;
        if (std::isdigit(u))
            digit = static_cast<unsigned>(u - '0');
        else if (std::isxdigit(u))
            digit = static_cast<unsigned>(std::tolower(u) - 'a') + 10;
        if (digit >= base
            || value > (~std::uint64_t{0} - digit) / base)
            return std::nullopt;
        value = value * base + digit;
    }
    return value;
}

std::optional<double>
parseDoubleCell(const std::string &cell)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(cell.c_str(), &end);
    if (cell.empty() || end == nullptr || *end != '\0' || errno != 0)
        return std::nullopt;
    return value;
}

std::uint64_t
fnv1a(std::string_view data, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
nameSetDigest(std::string_view tag, const std::vector<std::string> &names)
{
    std::uint64_t h = fnv1a(tag);
    for (const std::string &name : names)
        h = fnv1a(name, fnv1a("|", h));
    return hex16(h);
}

std::string
recordHash(const std::string &config_fingerprint,
           const std::string &payload)
{
    return hex16(fnv1a(payload, fnv1a("|", fnv1a(config_fingerprint))));
}

std::string
JournalHeader::serialize() const
{
    std::ostringstream os;
    os << "spec17-journal-v" << version << ",config="
       << configFingerprint << ",pairs=" << pairsDigest << ",shard="
       << shardIndex << "/" << shardCount;
    return os.str();
}

std::string
JournalHeader::shardLabel() const
{
    return std::to_string(shardIndex) + "/"
        + std::to_string(shardCount);
}

std::optional<JournalHeader>
JournalHeader::parse(const std::string &line, std::string &reason)
{
    static constexpr const char *kMagic = "spec17-journal-v";
    const std::vector<std::string> cells = splitCells(line, ',');
    if (cells[0].rfind(kMagic, 0) != 0) {
        reason = "not a spec17 journal header (legacy v1 journals "
                 "carry no campaign header and cannot be verified)";
        return std::nullopt;
    }
    JournalHeader header;
    const auto version =
        parseUnsigned(cells[0].substr(std::strlen(kMagic)));
    if (!version) {
        reason = "unparsable format version in '" + cells[0] + "'";
        return std::nullopt;
    }
    header.version = *version;
    if (header.version != kJournalFormatVersion) {
        reason = "unsupported journal format version "
            + std::to_string(header.version) + " (this build reads v"
            + std::to_string(kJournalFormatVersion) + ")";
        return std::nullopt;
    }
    if (cells.size() != 4) {
        reason = "expected 4 header fields, got "
            + std::to_string(cells.size());
        return std::nullopt;
    }
    if (cells[1].rfind("config=", 0) != 0
        || !isHex16(cells[1].substr(7))) {
        reason = "malformed config fingerprint '" + cells[1] + "'";
        return std::nullopt;
    }
    header.configFingerprint = cells[1].substr(7);
    if (cells[2].rfind("pairs=", 0) != 0
        || !isHex16(cells[2].substr(6))) {
        reason = "malformed pair-set digest '" + cells[2] + "'";
        return std::nullopt;
    }
    header.pairsDigest = cells[2].substr(6);
    if (cells[3].rfind("shard=", 0) != 0) {
        reason = "malformed shard field '" + cells[3] + "'";
        return std::nullopt;
    }
    const std::string shard = cells[3].substr(6);
    const auto slash = shard.find('/');
    if (slash == std::string::npos) {
        reason = "malformed shard field '" + cells[3] + "'";
        return std::nullopt;
    }
    const auto index = parseUnsigned(shard.substr(0, slash));
    const auto count = parseUnsigned(shard.substr(slash + 1));
    if (!index || !count || *count == 0 || *index == 0
        || *index > *count) {
        reason = "invalid shard identity '" + shard + "'";
        return std::nullopt;
    }
    header.shardIndex = *index;
    header.shardCount = *count;
    return header;
}

JournalScan
scanJournalContent(const std::string &content, bool file_ok)
{
    JournalScan scan;
    scan.fileOk = file_ok;
    if (!file_ok) {
        scan.headerError = "cannot read journal file";
        return scan;
    }
    std::istringstream in(content);
    std::string line;
    if (!std::getline(in, line)) {
        scan.headerError = "empty file (no campaign header)";
        return scan;
    }
    std::string reason;
    const auto header = JournalHeader::parse(line, reason);
    if (!header) {
        scan.headerError = reason;
        return scan;
    }
    scan.header = *header;
    if (!std::getline(in, scan.columnHeader)
        || scan.columnHeader.empty()) {
        scan.headerError = "missing column header";
        return scan;
    }
    static constexpr const char *kHashColumn = ",record_hash";
    if (scan.columnHeader.size() <= std::strlen(kHashColumn)
        || scan.columnHeader.compare(
               scan.columnHeader.size() - std::strlen(kHashColumn),
               std::strlen(kHashColumn), kHashColumn)
            != 0) {
        scan.headerError =
            "column header lacks the record_hash column";
        return scan;
    }
    scan.headerOk = true;

    const std::size_t payload_cells =
        countCells(scan.columnHeader) - 1;
    std::map<std::string, std::size_t> seen;
    std::size_t index = 0;
    while (std::getline(in, line)) {
        std::string why;
        const auto comma = line.rfind(',');
        const std::string hash =
            comma == std::string::npos ? "" : line.substr(comma + 1);
        const std::string payload =
            comma == std::string::npos ? line : line.substr(0, comma);
        if (comma == std::string::npos || !isHex16(hash)) {
            why = "missing or malformed record hash";
        } else if (recordHash(scan.header.configFingerprint, payload)
                   != hash) {
            why = "record hash mismatch (payload altered or torn)";
        } else if (countCells(payload) != payload_cells) {
            why = "expected " + std::to_string(payload_cells)
                + " payload fields, got "
                + std::to_string(countCells(payload));
        } else {
            const std::string name =
                payload.substr(0, payload.find(','));
            const auto prior = seen.find(name);
            if (prior != seen.end()) {
                why = "duplicate record for pair '" + name
                    + "' (first at record "
                    + std::to_string(prior->second) + ")";
            } else {
                seen.emplace(name, index);
                scan.records.push_back(line);
                scan.names.push_back(name);
                ++index;
                continue;
            }
        }
        scan.corrupt = true;
        scan.corruptRecord = index;
        scan.corruptReason = why;
        break;
    }
    return scan;
}

JournalScan
scanJournal(const std::string &path)
{
    std::string content;
    const bool file_ok = readFile(path, content);
    return scanJournalContent(content, file_ok);
}

bool
repairJournal(const std::string &path, std::string &error)
{
    const JournalScan scan = scanJournal(path);
    if (!scan.headerOk) {
        error = "unrepairable journal (" + scan.headerError
            + "): the campaign header is the root of trust, and it "
              "is damaged";
        return false;
    }
    std::ostringstream out;
    out << scan.header.serialize() << "\n" << scan.columnHeader
        << "\n";
    for (const std::string &record : scan.records)
        out << record << "\n";
    return writeFileAtomic(path, out.str(), &error);
}

MergeOutcome
mergeJournals(const std::vector<std::string> &shard_paths,
              const std::string &out_path, bool allow_partial)
{
    MergeOutcome outcome;
    if (shard_paths.empty()) {
        outcome.error = "no shard journals to merge";
        return outcome;
    }

    // Pass 1: scan and cross-validate every shard. Merge is strict
    // about integrity -- a corrupt shard must be fsck'd (and
    // possibly --repair'd) first, so damage is an explicit operator
    // decision instead of silently shortening the campaign.
    std::vector<JournalScan> scans;
    scans.reserve(shard_paths.size());
    for (const std::string &path : shard_paths) {
        JournalScan scan = scanJournal(path);
        if (!scan.headerOk) {
            outcome.error = path + ": " + scan.headerError;
            return outcome;
        }
        if (scan.corrupt) {
            outcome.error = path + ": record "
                + std::to_string(scan.corruptRecord) + " is damaged ("
                + scan.corruptReason
                + "); run `spec17 fsck --repair` first";
            return outcome;
        }
        scans.push_back(std::move(scan));
    }
    const JournalScan &first = scans.front();
    for (std::size_t i = 1; i < scans.size(); ++i) {
        const JournalScan &scan = scans[i];
        if (scan.header.configFingerprint
            != first.header.configFingerprint) {
            outcome.error = shard_paths[i]
                + ": config fingerprint "
                + scan.header.configFingerprint
                + " does not match " + shard_paths[0] + " ("
                + first.header.configFingerprint
                + "); shards come from different campaigns";
            return outcome;
        }
        if (scan.header.pairsDigest != first.header.pairsDigest) {
            outcome.error = shard_paths[i]
                + ": pair-set digest does not match "
                + shard_paths[0]
                + "; shards enumerate different pair sets";
            return outcome;
        }
        if (scan.header.shardCount != first.header.shardCount) {
            outcome.error = shard_paths[i] + ": shard count "
                + std::to_string(scan.header.shardCount)
                + " does not match "
                + std::to_string(first.header.shardCount);
            return outcome;
        }
        if (scan.columnHeader != first.columnHeader) {
            outcome.error = shard_paths[i]
                + ": column header differs from " + shard_paths[0]
                + " (mixed builds?)";
            return outcome;
        }
    }

    // Pass 2: place every record at its canonical index. Record j of
    // shard K/N is canonical pair j*N + (K-1) -- the round-robin
    // partition is what lets the merge reconstruct total order
    // without re-enumerating the suite.
    const unsigned shard_count = first.header.shardCount;
    std::map<std::size_t, std::pair<std::string, std::size_t>> slots;
    std::map<std::string, std::size_t> name_slots;
    std::map<unsigned, std::size_t> shard_sources;
    for (std::size_t s = 0; s < scans.size(); ++s) {
        const JournalScan &scan = scans[s];
        const unsigned k = scan.header.shardIndex;
        const auto prior = shard_sources.find(k);
        if (prior != shard_sources.end()) {
            // The same shard delivered twice (e.g. a retried upload):
            // tolerated only when byte-identical.
            const JournalScan &other = scans[prior->second];
            if (scan.records != other.records) {
                std::size_t at = 0;
                const std::size_t limit = std::min(
                    scan.records.size(), other.records.size());
                while (at < limit
                       && scan.records[at] == other.records[at])
                    ++at;
                outcome.error = "divergent duplicate of shard "
                    + scan.header.shardLabel() + ": "
                    + shard_paths[s] + " and "
                    + shard_paths[prior->second]
                    + " disagree at record " + std::to_string(at);
                return outcome;
            }
            continue;
        }
        shard_sources.emplace(k, s);
        for (std::size_t j = 0; j < scan.records.size(); ++j) {
            const std::size_t canonical = j * shard_count + (k - 1);
            const std::string &name = scan.names[j];
            const auto name_prior = name_slots.find(name);
            if (name_prior != name_slots.end()
                && name_prior->second != canonical) {
                outcome.error = "overlapping shards: pair '" + name
                    + "' appears at canonical index "
                    + std::to_string(name_prior->second)
                    + " and again at "
                    + std::to_string(canonical) + " (from "
                    + shard_paths[s] + ")";
                return outcome;
            }
            name_slots.emplace(name, canonical);
            slots.emplace(canonical,
                          std::make_pair(scan.records[j], s));
        }
    }
    outcome.shardsMerged = shard_sources.size();

    // Pass 3: the union must form a gap-free canonical prefix --
    // the defining journal invariant (resume and readers rely on it).
    std::vector<const std::string *> ordered;
    ordered.reserve(slots.size());
    std::size_t expected = 0;
    for (const auto &[canonical, entry] : slots) {
        if (canonical != expected) {
            if (!allow_partial) {
                const unsigned missing_shard = static_cast<unsigned>(
                    expected % shard_count) + 1;
                outcome.error = "gap at canonical record "
                    + std::to_string(expected) + " (shard "
                    + std::to_string(missing_shard) + "/"
                    + std::to_string(shard_count)
                    + " is missing or partial); pass --allow-partial "
                      "to keep the contiguous prefix";
                return outcome;
            }
            break;
        }
        ordered.push_back(&entry.first);
        ++expected;
    }
    outcome.recordsDropped = slots.size() - ordered.size();

    JournalHeader merged = first.header;
    merged.shardIndex = 1;
    merged.shardCount = 1;
    std::ostringstream out;
    out << merged.serialize() << "\n" << first.columnHeader << "\n";
    for (const std::string *record : ordered)
        out << *record << "\n";
    if (!writeFileAtomic(out_path, out.str(), &outcome.error))
        return outcome;
    outcome.recordsWritten = ordered.size();
    outcome.ok = true;
    return outcome;
}

} // namespace suite
} // namespace spec17
