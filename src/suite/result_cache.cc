#include "suite/result_cache.hh"

#include <cstdlib>
#include <sstream>

namespace spec17 {
namespace suite {

using counters::PerfEvent;
using workloads::InputSize;
using workloads::WorkloadProfile;

namespace {

const char *
generationName(const WorkloadProfile &any)
{
    return any.generation == workloads::SuiteGeneration::Cpu2017
        ? "cpu2017" : "cpu2006";
}

/** Fixed cells before the per-event counter columns. */
constexpr std::size_t kFixedFields = 8;

} // namespace

std::string
PairResultCodec::columnHeader()
{
    std::string header = "name,input,errored,attempts,failures,"
                         "wall_cycles,instr_billions,seconds";
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        header.append(",").append(
            perfEventName(static_cast<PerfEvent>(e)));
    return header + ",record_hash";
}

std::optional<PairResult>
PairResultCodec::parse(const std::string &payload, std::string &reason)
{
    const std::vector<std::string> cells = splitCells(payload, ',');
    const std::size_t want = kFixedFields + counters::kNumPerfEvents;
    if (cells.size() != want) {
        reason = "expected " + std::to_string(want) + " fields, got "
            + std::to_string(cells.size());
        return std::nullopt;
    }

    PairResult r;
    r.name = cells[0];
    const auto input = parseUintCell(cells[1]);
    const auto errored = parseUintCell(cells[2]);
    const auto attempts = parseUintCell(cells[3]);
    const auto failures = parseFailures(cells[4]);
    const auto wall = parseDoubleCell(cells[5]);
    const auto instr = parseDoubleCell(cells[6]);
    const auto seconds = parseDoubleCell(cells[7]);
    if (!input || !errored || !attempts || !failures || !wall || !instr
        || !seconds) {
        reason = "unparsable fixed field";
        return std::nullopt;
    }
    r.inputIndex = static_cast<unsigned>(*input);
    r.errored = *errored != 0;
    r.attempts = static_cast<unsigned>(*attempts);
    r.failures = *failures;
    r.wallCycles = *wall;
    r.instrBillions = *instr;
    r.seconds = *seconds;
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
        const auto count = parseUintCell(cells[kFixedFields + e]);
        if (!count) {
            reason = "unparsable counter "
                + std::string(perfEventName(static_cast<PerfEvent>(e)));
            return std::nullopt;
        }
        r.counters.set(static_cast<PerfEvent>(e), *count);
    }
    return r;
}

std::string
PairResultCodec::serialize(const PairResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.name << "," << r.inputIndex << "," << (r.errored ? 1 : 0)
        << "," << r.attempts << "," << serializeFailures(r.failures)
        << "," << r.wallCycles << "," << r.instrBillions << ","
        << r.seconds;
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        out << "," << r.counters.get(static_cast<PerfEvent>(e));
    return out.str();
}

std::string
pairSetDigest(const std::vector<WorkloadProfile> &suite, InputSize size)
{
    std::uint64_t h =
        fnv1a(suite.empty() ? "empty" : generationName(suite.front()));
    h = fnv1a("|", h);
    h = fnv1a(workloads::inputSizeName(size), h);
    for (const auto &pair : enumeratePairs(suite, size)) {
        h = fnv1a("|", h);
        h = fnv1a(pair.displayName(), h);
    }
    return hex16(h);
}

ResultCache::ResultCache(std::string path, bool resume)
    : CampaignStore(std::move(path), resume)
{
}

std::string
ResultCache::defaultPath()
{
    if (const char *env = std::getenv("SPEC17_CACHE"))
        return env;
    return "spec17_results";
}

std::string
ResultCache::journalFile(const std::vector<WorkloadProfile> &suite,
                         InputSize size) const
{
    if (suite.empty())
        return "";
    return sectionFile(std::string(generationName(suite.front())) + "."
                       + workloads::inputSizeName(size));
}

CampaignIdentity
ResultCache::identity(const SuiteRunner &runner,
                      const std::vector<WorkloadProfile> &suite,
                      InputSize size) const
{
    const std::string file = journalFile(suite, size);
    if (file.empty())
        return {};
    return {file, configFingerprint(runner), pairSetDigest(suite, size)};
}

ResultCache::SweepPrefix
ResultCache::beginSweep(const SuiteRunner &runner,
                        const std::vector<WorkloadProfile> &suite,
                        InputSize size,
                        const std::vector<workloads::AppInputPair> &pairs)
{
    return open(identity(runner, suite, size), pairs);
}

void
ResultCache::checkpoint(const SuiteRunner &runner,
                        const std::vector<WorkloadProfile> &suite,
                        InputSize size,
                        const std::vector<PairResult> &results) const
{
    save(identity(runner, suite, size), results, /*quiet=*/true);
}

void
ResultCache::finish(const SuiteRunner &runner,
                    const std::vector<WorkloadProfile> &suite,
                    InputSize size,
                    const std::vector<PairResult> &results) const
{
    // The loud commit doubles as the failure report for unwritable
    // cache locations.
    save(identity(runner, suite, size), results, /*quiet=*/false);
}

std::vector<PairResult>
ResultCache::runOrLoad(const SuiteRunner &runner,
                       const std::vector<WorkloadProfile> &suite,
                       InputSize size,
                       const SuiteRunner::PairObserver &observer)
{
    const auto pairs = suite.empty()
        ? std::vector<workloads::AppInputPair>{}
        : shardSlice(enumeratePairs(suite, size), shard_);
    return sweep(identity(runner, suite, size), pairs, observer,
                 [&runner](const std::vector<workloads::AppInputPair>
                               &remaining,
                           const SuiteRunner::PairObserver &done,
                           std::size_t offset, std::size_t total) {
                     runner.runPairs(remaining, done, offset, total);
                 });
}

void
ResultCache::invalidate()
{
    std::vector<std::string> sections;
    for (const char *generation : {"cpu2017", "cpu2006"}) {
        for (InputSize size : workloads::kAllInputSizes)
            sections.push_back(std::string(generation) + "."
                               + workloads::inputSizeName(size));
    }
    removeSections(sections);
}

} // namespace suite
} // namespace spec17
