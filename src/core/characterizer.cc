#include "core/characterizer.hh"

#include "util/logging.hh"

namespace spec17 {
namespace core {

using workloads::InputSize;
using workloads::SuiteGeneration;

Characterizer::Characterizer(CharacterizerOptions options)
    : runner_(options.runner),
      cache_(options.cachePath, options.resume, options.shard),
      pairObserver_(std::move(options.pairObserver))
{
}

const std::vector<suite::PairResult> &
Characterizer::results(SuiteGeneration generation, InputSize size)
{
    const auto key = std::make_pair(static_cast<int>(generation),
                                    static_cast<int>(size));
    auto it = memo_.find(key);
    if (it == memo_.end()) {
        it = memo_.emplace(key, cache_.runOrLoad(
                                    runner_, workloads::suiteOf(generation),
                                    size, pairObserver_))
                 .first;
    }
    return it->second;
}

std::vector<Metrics>
Characterizer::metrics(SuiteGeneration generation, InputSize size)
{
    return deriveMetrics(results(generation, size));
}

std::vector<const suite::PairResult *>
Characterizer::failures(SuiteGeneration generation, InputSize size)
{
    std::vector<const suite::PairResult *> affected;
    for (const auto &result : results(generation, size)) {
        if (result.errored || !result.failures.empty())
            affected.push_back(&result);
    }
    return affected;
}

RedundancyAnalysis
Characterizer::redundancyFor(bool speed, const RedundancyOptions &options)
{
    const auto &all = results(SuiteGeneration::Cpu2017, InputSize::Ref);
    std::vector<suite::PairResult> slice;
    for (const auto &result : all) {
        const bool is_speed =
            workloads::isSpeedSuite(result.profile->suite);
        if (is_speed == speed)
            slice.push_back(result);
    }
    SPEC17_ASSERT(!slice.empty(), "no pairs in requested slice");
    return analyzeRedundancy(slice, options);
}

RedundancyAnalysis
Characterizer::redundancyAll(const RedundancyOptions &options)
{
    return analyzeRedundancy(
        results(SuiteGeneration::Cpu2017, InputSize::Ref), options);
}

} // namespace core
} // namespace spec17
