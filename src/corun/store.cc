#include "corun/store.hh"

#include <sstream>

namespace spec17 {
namespace corun {

using suite::splitCells;

std::string
CorunResultCodec::serialize(const CorunResult &result)
{
    // Full double precision so the payload -- and therefore its hash,
    // and therefore the journal bytes -- is identical no matter which
    // process or shard writes it.
    std::ostringstream out;
    out.precision(17);
    out << result.name << ","
        << (result.masks.empty() ? "-" : maskSetLabel(result.masks));
    out << ",";
    for (std::size_t c = 0; c < result.members.size(); ++c) {
        const MemberResult &m = result.members[c];
        out << (c == 0 ? "" : ";") << m.name << ":" << m.cycles << ":"
            << m.soloCycles << ":" << m.instructions << ":" << m.l3Hits
            << ":" << m.l3Misses << ":" << m.evictionsInflicted << ":"
            << m.evictionsSuffered << ":" << m.occupancyLines;
    }
    return out.str();
}

std::optional<CorunResult>
CorunResultCodec::parse(const std::string &payload, std::string &reason)
{
    CorunResult result;
    const std::vector<std::string> cells = splitCells(payload, ',');
    if (cells.size() != 3) {
        reason = "expected 3 fields, got "
            + std::to_string(cells.size());
        return std::nullopt;
    }
    result.name = cells[0];
    if (result.name.empty()) {
        reason = "record without a group name";
        return std::nullopt;
    }
    if (cells[1] != "-") {
        for (const std::string &mask : splitCells(cells[1], '+')) {
            const auto value = mask.compare(0, 2, "0x") == 0
                ? suite::parseUintCell(std::string_view(mask).substr(2),
                                       16)
                : std::nullopt;
            if (!value || *value > 0xffffffffULL) {
                reason = "unparsable mask '" + mask + "'";
                return std::nullopt;
            }
            result.masks.push_back(static_cast<std::uint32_t>(*value));
        }
    }
    for (const std::string &cell : splitCells(cells[2], ';')) {
        const std::vector<std::string> fields = splitCells(cell, ':');
        if (fields.size() != 9) {
            reason = "expected 9 member fields, got "
                + std::to_string(fields.size());
            return std::nullopt;
        }
        MemberResult m;
        m.name = fields[0];
        const auto cycles = suite::parseDoubleCell(fields[1]);
        const auto solo = suite::parseDoubleCell(fields[2]);
        const auto instr = suite::parseUintCell(fields[3]);
        const auto hits = suite::parseUintCell(fields[4]);
        const auto misses = suite::parseUintCell(fields[5]);
        const auto inflicted = suite::parseUintCell(fields[6]);
        const auto suffered = suite::parseUintCell(fields[7]);
        const auto occupancy = suite::parseUintCell(fields[8]);
        if (m.name.empty() || !cycles || !solo || !instr || !hits
            || !misses || !inflicted || !suffered || !occupancy) {
            reason = "unparsable member cell '" + cell + "'";
            return std::nullopt;
        }
        m.cycles = *cycles;
        m.soloCycles = *solo;
        m.instructions = *instr;
        m.l3Hits = *hits;
        m.l3Misses = *misses;
        m.evictionsInflicted = *inflicted;
        m.evictionsSuffered = *suffered;
        m.occupancyLines = *occupancy;
        result.members.push_back(std::move(m));
    }
    return result;
}

CorunStore::CorunStore(std::string path, bool resume,
                       suite::ShardSpec shard)
    : CampaignStore(std::move(path), resume, shard)
{
}

std::string
CorunStore::journalFile(const CorunRunner &runner) const
{
    return sectionFile(std::string("corun.")
                       + workloads::inputSizeName(runner.options().size));
}

std::vector<CorunResult>
CorunStore::runOrLoad(const CorunRunner &runner,
                      const std::vector<CorunGroup> &groups,
                      const CorunRunner::GroupObserver &observer)
{
    std::vector<std::string> names;
    for (const CorunGroup &group : groups)
        names.push_back(group.name());
    const suite::CampaignIdentity id{journalFile(runner),
                                     suite::configFingerprint(runner),
                                     suite::nameSetDigest("corun", names)};
    return sweep(id, suite::shardSlice(groups, shard_), observer,
                 runner.options().jobs,
                 [&runner](const CorunGroup &group) {
                     return runner.runGroup(group);
                 });
}

void
CorunStore::invalidate() const
{
    std::vector<std::string> sections;
    for (workloads::InputSize size : workloads::kAllInputSizes)
        sections.push_back(std::string("corun.")
                           + workloads::inputSizeName(size));
    removeSections(sections);
}

} // namespace corun
} // namespace spec17
