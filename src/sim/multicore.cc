#include "sim/multicore.hh"

#include <algorithm>

#include "util/logging.hh"

namespace spec17 {
namespace sim {

using counters::PerfEvent;

MulticoreSimulator::MulticoreSimulator(const SystemConfig &config,
                                       unsigned num_cores,
                                       std::uint64_t seed)
    : config_(config),
      sharedL3_(CacheHierarchy::makeSharedL3(config.hierarchy, seed)),
      sharedBus_(std::make_shared<MemoryBus>())
{
    SPEC17_ASSERT(num_cores >= 1, "need at least one core");
    sharedL3_->enableContextTracking(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        cores_.push_back(std::make_unique<CpuSimulator>(
            config, deriveSeed(deriveSeed(seed, "core"), c), sharedL3_,
            sharedBus_));
        cores_.back()->setL3Context(c);
    }
}

const CpuSimulator &
MulticoreSimulator::core(unsigned index) const
{
    SPEC17_ASSERT(index < cores_.size(), "core index ", index,
                  " out of range: this simulator has ", cores_.size(),
                  " cores (valid indices 0..", cores_.size() - 1, ")");
    return *cores_[index];
}

CpuSimulator &
MulticoreSimulator::mutableCore(unsigned index)
{
    SPEC17_ASSERT(index < cores_.size(), "core index ", index,
                  " out of range: this simulator has ", cores_.size(),
                  " cores (valid indices 0..", cores_.size() - 1, ")");
    return *cores_[index];
}

void
MulticoreSimulator::setWayPartition(
    const std::vector<std::uint32_t> &masks)
{
    SPEC17_ASSERT(masks.size() == cores_.size(),
                  "way partition needs one mask per core, got ",
                  masks.size(), " for ", cores_.size(), " cores");
    for (std::size_t c = 0; c < masks.size(); ++c)
        sharedL3_->setWayMask(static_cast<unsigned>(c), masks[c]);
}

std::vector<SimResult>
MulticoreSimulator::runEach(
    const std::vector<std::shared_ptr<trace::TraceSource>> &sources,
    std::uint64_t chunk_ops, std::uint64_t warmup_ops_per_core,
    const ChunkObserver &on_chunk)
{
    SPEC17_ASSERT(sources.size() == cores_.size(),
                  "need exactly one trace per core, got ",
                  sources.size(), " for ", cores_.size(), " cores");
    SPEC17_ASSERT(chunk_ops >= 1, "chunk must be positive");
    for (const auto &source : sources)
        SPEC17_ASSERT(source != nullptr, "null trace source");

    std::vector<bool> done(cores_.size(), false);
    std::vector<bool> warm(cores_.size(), warmup_ops_per_core == 0);
    std::vector<std::uint64_t> executed(cores_.size(), 0);
    std::vector<counters::CounterSet> warm_snapshot(cores_.size());
    std::vector<double> warm_cycles(cores_.size(), 0.0);
    std::uint64_t measured = 0;

    bool any_left = true;
    while (any_left) {
        any_left = false;
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            if (done[c])
                continue;
            // Stop exactly at the warmup boundary so the measured
            // interval matches the requested sample size.
            std::uint64_t want = chunk_ops;
            const bool was_warm = warm[c];
            if (!was_warm) {
                want = std::min<std::uint64_t>(
                    want, warmup_ops_per_core - executed[c]);
            }
            const std::uint64_t consumed =
                cores_[c]->step(*sources[c], want);
            executed[c] += consumed;
            if (!warm[c] && executed[c] >= warmup_ops_per_core) {
                warm[c] = true;
                warm_snapshot[c] = cores_[c]->snapshot();
                warm_cycles[c] = cores_[c]->core().cycles();
            }
            if (consumed < want)
                done[c] = true;
            else
                any_left = true;
            // Chunks are capped at the warmup boundary, so a chunk's
            // ops are measured iff the core entered it already warm.
            if (was_warm && consumed > 0) {
                measured += consumed;
                if (on_chunk)
                    on_chunk(measured);
            }
        }
    }

    // Without a warmup the snapshots stay empty and the cycles zero,
    // so the measured window is the whole run.
    std::vector<SimResult> parts;
    parts.reserve(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        // A source shorter than the warmup yields an empty measured
        // interval for that core.
        if (!warm[c]) {
            warm_snapshot[c] = cores_[c]->snapshot();
            warm_cycles[c] = cores_[c]->core().cycles();
        }
        parts.push_back(cores_[c]->measuredSinceWarmup(
            *sources[c], warm_snapshot[c], warm_cycles[c]));
    }
    return parts;
}

SimResult
MulticoreSimulator::run(
    const std::vector<std::shared_ptr<trace::TraceSource>> &sources,
    std::uint64_t chunk_ops, std::uint64_t warmup_ops_per_core,
    const ChunkObserver &on_chunk)
{
    const std::vector<SimResult> parts =
        runEach(sources, chunk_ops, warmup_ops_per_core, on_chunk);

    SimResult merged;
    double max_cycles = 0.0;
    std::uint64_t vsz = 0;
    for (const SimResult &part : parts) {
        merged.counters.accumulate(part.counters);
        max_cycles = std::max(max_cycles, part.cycles);
        // Threads share one address space: reservations overlap, so
        // VSZ is the max reservation, not the sum.
        vsz = std::max(vsz, part.counters.get(PerfEvent::VszBytes));
    }
    // Gauges must not sum across threads the way counts do: the
    // threads share one address space and (by construction) the same
    // data regions, so the union of touched pages is approximated by
    // the largest single-thread footprint.
    std::uint64_t max_rss = 0;
    for (const auto &core : cores_)
        max_rss = std::max(max_rss, core->footprint().rssBytes());
    merged.counters.set(PerfEvent::RssBytes, max_rss);
    merged.counters.set(PerfEvent::VszBytes,
                        std::max(vsz, merged.counters.get(
                            PerfEvent::RssBytes)));

    merged.cycles = max_cycles;
    merged.seconds = cores_.front()->core().secondsFor(max_cycles);
    return merged;
}

} // namespace sim
} // namespace spec17
