/**
 * @file
 * Shared-L3 multicore semantics added for the co-run engine:
 * per-context attribution (hits, misses, inflicted/suffered
 * evictions, occupancy), CAT-style way partitions, the per-context
 * runEach() view, warmup exclusion, and determinism of all of it --
 * plus the per-op reference lane as the co-run oracle.
 */

#include "sim/multicore.hh"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "trace/synthetic.hh"

namespace spec17 {
namespace sim {
namespace {

using counters::PerfEvent;

/** Small L3 so a few hundred KiB of heap creates real contention. */
SystemConfig
smallL3Machine()
{
    SystemConfig config = SystemConfig::haswellXeonE52650Lv3();
    config.hierarchy.l3.sizeBytes = 512 * 1024;
    config.hierarchy.l3.assoc = 8;
    return config;
}

/** One random-access source per core, in disjoint address spaces. */
std::vector<std::shared_ptr<trace::TraceSource>>
makeSources(unsigned cores, std::uint64_t ops,
            std::uint64_t heap_bytes = 384 * 1024)
{
    std::vector<std::shared_ptr<trace::TraceSource>> sources;
    for (unsigned t = 0; t < cores; ++t) {
        trace::SyntheticTraceParams params;
        params.numOps = ops;
        params.seed = 40 + t;
        params.loadFrac = 0.4;
        params.addressOffset = std::uint64_t(t) * 64 * 1024 * 1024;
        params.regions = {
            {trace::AccessPattern::Random, heap_bytes, 64, 1.0, 1.0},
        };
        sources.push_back(
            std::make_shared<trace::SyntheticTraceGenerator>(params));
    }
    return sources;
}

TEST(MulticoreCorun, RunEachIsDeterministicAcrossRuns)
{
    std::vector<SimResult> first, second;
    for (std::vector<SimResult> *out : {&first, &second}) {
        MulticoreSimulator machine(smallL3Machine(), 2, 7);
        *out = machine.runEach(makeSources(2, 30000), 5000, 10000);
    }
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(second.size(), 2u);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_DOUBLE_EQ(first[c].cycles, second[c].cycles);
        for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e) {
            const auto event = static_cast<counters::PerfEvent>(e);
            EXPECT_EQ(first[c].counters.get(event),
                      second[c].counters.get(event))
                << "core " << c << " " << perfEventName(event);
        }
    }
}

TEST(MulticoreCorun, WarmupOpsAreExcludedFromMeasurement)
{
    MulticoreSimulator machine(smallL3Machine(), 2, 7);
    const auto parts =
        machine.runEach(makeSources(2, 30000), 5000, 10000);
    for (unsigned c = 0; c < 2; ++c) {
        // 30000 ops per core, 10000 of them warmup: exactly the
        // 20000-op measured window lands in the counters.
        EXPECT_EQ(parts[c].counters.get(PerfEvent::InstRetiredAny),
                  20000u)
            << "core " << c;
        EXPECT_GT(parts[c].cycles, 0.0);
    }
}

TEST(MulticoreCorun, ContextStatsSumToSharedCacheTotals)
{
    MulticoreSimulator machine(smallL3Machine(), 3, 7);
    machine.runEach(makeSources(3, 40000), 5000);

    const SetAssocCache &l3 = machine.sharedL3();
    ASSERT_EQ(l3.numContexts(), 3u);
    std::uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
    std::uint64_t inflicted = 0, suffered = 0, occupancy = 0;
    for (unsigned c = 0; c < 3; ++c) {
        const CacheContextStats &stats = l3.contextStats(c);
        hits += stats.hits;
        misses += stats.misses;
        evictions += stats.evictions;
        writebacks += stats.writebacks;
        inflicted += stats.evictionsInflicted;
        suffered += stats.evictionsSuffered;
        occupancy += l3.contextOccupancy(c);
    }
    // Attribution is a partition of the shared totals: every access
    // and every eviction is charged to exactly one context.
    EXPECT_EQ(hits, l3.stats().hits);
    EXPECT_EQ(misses, l3.stats().misses);
    EXPECT_EQ(evictions, l3.stats().evictions);
    EXPECT_EQ(writebacks, l3.stats().writebacks);
    // A cross-context eviction is one context's infliction and
    // another's suffering -- the two books must balance.
    EXPECT_EQ(inflicted, suffered);
    EXPECT_GT(inflicted, 0u) << "workload too small to contend";
    // Owned lines can never exceed the cache's capacity.
    const auto &config = l3.config();
    EXPECT_LE(occupancy, config.numSets() * config.assoc);
    EXPECT_GT(occupancy, 0u);
}

TEST(MulticoreCorun, WayPartitionConfinesOccupancy)
{
    MulticoreSimulator machine(smallL3Machine(), 2, 7);
    // Context 0 gets 2 of 8 ways, context 1 the other 6.
    machine.setWayPartition({0x03, 0xfc});
    machine.runEach(makeSources(2, 40000), 5000);

    const SetAssocCache &l3 = machine.sharedL3();
    // Allocations can only claim ways in the context's mask, so
    // occupancy is bounded by sets * popcount(mask).
    EXPECT_LE(l3.contextOccupancy(0), l3.config().numSets() * 2);
    EXPECT_LE(l3.contextOccupancy(1), l3.config().numSets() * 6);
    // With disjoint masks no context can victimize the other.
    EXPECT_EQ(l3.contextStats(0).evictionsSuffered, 0u);
    EXPECT_EQ(l3.contextStats(1).evictionsSuffered, 0u);
}

TEST(MulticoreCorun, ReferenceLaneMatchesBatchedLane)
{
    // The co-run oracle: every core on the per-op reference lane must
    // reproduce the batched lane exactly -- per-core counters and
    // cycles, and the shared L3's per-context books -- at chunk sizes
    // that interleave the cores per op, mid-batch and across many
    // batches, with and without a CAT way split.
    const std::vector<std::vector<std::uint32_t>> partitions = {
        {}, {0x03, 0xfc}};
    for (const auto &masks : partitions) {
        for (const std::uint64_t chunk :
             {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{255},
              std::uint64_t{257}, std::uint64_t{10000}}) {
            SCOPED_TRACE(::testing::Message()
                         << "chunk=" << chunk
                         << " partitioned=" << !masks.empty());
            MulticoreSimulator batched(smallL3Machine(), 2, 7);
            MulticoreSimulator reference(smallL3Machine(), 2, 7);
            for (unsigned c = 0; c < 2; ++c)
                reference.mutableCore(c).setUnbatchedStepping(true);
            if (!masks.empty()) {
                batched.setWayPartition(masks);
                reference.setWayPartition(masks);
            }
            const auto a =
                batched.runEach(makeSources(2, 20000), chunk, 3000);
            const auto b =
                reference.runEach(makeSources(2, 20000), chunk, 3000);
            ASSERT_EQ(a.size(), 2u);
            ASSERT_EQ(b.size(), 2u);
            for (unsigned c = 0; c < 2; ++c) {
                EXPECT_EQ(a[c].cycles, b[c].cycles) << "core " << c;
                for (std::size_t e = 0; e < counters::kNumPerfEvents;
                     ++e) {
                    const auto event = static_cast<PerfEvent>(e);
                    EXPECT_EQ(a[c].counters.get(event),
                              b[c].counters.get(event))
                        << "core " << c << " " << perfEventName(event);
                }
                const CacheContextStats &x =
                    batched.sharedL3().contextStats(c);
                const CacheContextStats &y =
                    reference.sharedL3().contextStats(c);
                EXPECT_EQ(x.hits, y.hits) << "context " << c;
                EXPECT_EQ(x.misses, y.misses) << "context " << c;
                EXPECT_EQ(x.evictions, y.evictions) << "context " << c;
                EXPECT_EQ(x.writebacks, y.writebacks) << "context " << c;
                EXPECT_EQ(x.evictionsInflicted, y.evictionsInflicted)
                    << "context " << c;
                EXPECT_EQ(x.evictionsSuffered, y.evictionsSuffered)
                    << "context " << c;
                EXPECT_EQ(batched.sharedL3().contextOccupancy(c),
                          reference.sharedL3().contextOccupancy(c))
                    << "context " << c;
            }
            if (::testing::Test::HasFailure())
                return; // one diverging configuration is enough
        }
    }
}

TEST(MulticoreCorun, PartitionChangesResults)
{
    // Masks are semantics, not observation: squeezing a context into
    // one way must change its cycle count. (This is why masks belong
    // in co-run config identity -- via the group name.)
    MulticoreSimulator free_machine(smallL3Machine(), 2, 7);
    const auto free_parts =
        free_machine.runEach(makeSources(2, 40000), 5000);

    MulticoreSimulator squeezed(smallL3Machine(), 2, 7);
    squeezed.setWayPartition({0x01, 0xfe});
    const auto squeezed_parts =
        squeezed.runEach(makeSources(2, 40000), 5000);

    EXPECT_GT(squeezed_parts[0].cycles, free_parts[0].cycles);
}

TEST(MulticoreCorun, RunMergesRunEachParts)
{
    // run() is the perf-stat view of runEach(): events sum across
    // contexts and cycles take the slowest context (wall time).
    const auto parts = [] {
        MulticoreSimulator machine(smallL3Machine(), 2, 7);
        return machine.runEach(makeSources(2, 30000), 5000, 5000);
    }();
    const SimResult merged = [] {
        MulticoreSimulator machine(smallL3Machine(), 2, 7);
        return machine.run(makeSources(2, 30000), 5000, 5000);
    }();

    EXPECT_EQ(merged.counters.get(PerfEvent::InstRetiredAny),
              parts[0].counters.get(PerfEvent::InstRetiredAny)
                  + parts[1].counters.get(PerfEvent::InstRetiredAny));
    EXPECT_EQ(merged.counters.get(PerfEvent::MemLoadUopsRetiredL3Miss),
              parts[0].counters.get(PerfEvent::MemLoadUopsRetiredL3Miss)
                  + parts[1].counters.get(
                      PerfEvent::MemLoadUopsRetiredL3Miss));
}

TEST(MulticoreCorunDeathTest, CoreIndexOutOfRangeNamesTheBounds)
{
    MulticoreSimulator machine(smallL3Machine(), 2, 7);
    EXPECT_DEATH(machine.core(2), "valid indices 0\\.\\.1");
    EXPECT_DEATH(machine.mutableCore(5), "core index 5");
}

TEST(MulticoreCorunDeathTest, IllegalPartitionMasksPanic)
{
    MulticoreSimulator machine(smallL3Machine(), 2, 7);
    EXPECT_DEATH(machine.setWayPartition({0x03}), "one mask per core");
    EXPECT_DEATH(machine.setWayPartition({0x03, 0x00}), "");
    // Bit 8 names a way beyond the 8-way associativity.
    EXPECT_DEATH(machine.setWayPartition({0x03, 0x100}), "");
}

} // namespace
} // namespace sim
} // namespace spec17
