/**
 * @file
 * Batched fast lane vs the per-op reference lane: CpuSimulator::step()
 * must leave the machine in a bit-identical state to stepUnbatched()
 * -- every perf counter, cache stat, core cycle count and footprint
 * byte -- at any batch size, under every configuration that exercises
 * a memo-legality edge (TLB walks, prefetchers, random replacement,
 * dirty-line stores), and when the two lanes are mixed mid-run. The
 * lane-importing clone-group sibling is pinned to the reference lane
 * too.
 */

#include "sim/simulator.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "counters/perf_event.hh"
#include "trace/arena.hh"
#include "trace/kernels.hh"
#include "trace/synthetic.hh"

namespace spec17 {
namespace sim {
namespace {

using counters::PerfEvent;

SystemConfig
machine()
{
    return SystemConfig::haswellXeonE52650Lv3();
}

trace::SyntheticTraceParams
mixedParams(std::uint64_t num_ops = 120000)
{
    trace::SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = 7;
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.regions = {
        // Sequential region drives the same-line memo; the random and
        // pointer-chase regions keep L2/L3 replacement state busy.
        {trace::AccessPattern::Sequential, 128 * 1024, 64, 1.0, 1.0},
        {trace::AccessPattern::Random, 8 * 1024 * 1024, 64, 1.0, 1.0},
        {trace::AccessPattern::PointerChase, 1024 * 1024, 64, 1.0, 0.5},
    };
    return p;
}

void
expectCacheStatsEqual(const CacheStats &a, const CacheStats &b,
                      const char *which)
{
    EXPECT_EQ(a.hits, b.hits) << which;
    EXPECT_EQ(a.misses, b.misses) << which;
    EXPECT_EQ(a.evictions, b.evictions) << which;
    EXPECT_EQ(a.writebacks, b.writebacks) << which;
    EXPECT_EQ(a.prefetchFills, b.prefetchFills) << which;
    EXPECT_EQ(a.prefetchUseful, b.prefetchUseful) << which;
    EXPECT_EQ(a.prefetchUsefulByL2, b.prefetchUsefulByL2) << which;
    EXPECT_EQ(a.wayPredictions, b.wayPredictions) << which;
    EXPECT_EQ(a.wayMispredicts, b.wayMispredicts) << which;
    EXPECT_EQ(a.wayPenaltyCycles, b.wayPenaltyCycles) << which;
}

void
expectSimsIdentical(const CpuSimulator &batched,
                    const CpuSimulator &reference)
{
    const counters::CounterSet a = batched.snapshot();
    const counters::CounterSet b = reference.snapshot();
    for (std::size_t i = 0; i < counters::kNumPerfEvents; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        EXPECT_EQ(a.get(event), b.get(event))
            << counters::perfEventName(event);
    }
    EXPECT_DOUBLE_EQ(batched.core().cycles(), reference.core().cycles());
    EXPECT_EQ(batched.footprint().rssBytes(),
              reference.footprint().rssBytes());
    expectCacheStatsEqual(batched.hierarchy().l1i().stats(),
                          reference.hierarchy().l1i().stats(), "l1i");
    expectCacheStatsEqual(batched.hierarchy().l1d().stats(),
                          reference.hierarchy().l1d().stats(), "l1d");
    expectCacheStatsEqual(batched.hierarchy().l2().stats(),
                          reference.hierarchy().l2().stats(), "l2");
    expectCacheStatsEqual(batched.hierarchy().l3().stats(),
                          reference.hierarchy().l3().stats(), "l3");
}

/**
 * Runs the same synthetic workload through a batched simulator (batch
 * size @p batch_ops) and a reference simulator, stepping both in the
 * uneven chunk sizes the runner produces (warmup, then sampler-capped
 * chunks), and requires identical final state and per-chunk op
 * counts.
 */
void
expectLaneIdentity(const SystemConfig &config,
                   const trace::SyntheticTraceParams &params,
                   std::size_t batch_ops)
{
    SCOPED_TRACE(::testing::Message() << "batch_ops=" << batch_ops);
    trace::SyntheticTraceGenerator gen_a(params);
    trace::SyntheticTraceGenerator gen_b(params);
    CpuSimulator batched(config, 42);
    batched.setBatchOps(batch_ops);
    CpuSimulator reference(config, 42);

    // Warmup chunk, then odd-sized chunks (9973 is prime, so batch
    // boundaries straddle chunk boundaries for every batch size > 1).
    std::uint64_t chunk = 20000;
    while (true) {
        const std::uint64_t got_a = batched.step(gen_a, chunk);
        const std::uint64_t got_b = reference.stepUnbatched(gen_b, chunk);
        ASSERT_EQ(got_a, got_b);
        if (got_a < chunk)
            break;
        chunk = 9973;
    }
    expectSimsIdentical(batched, reference);
}

TEST(HotPath, BatchedLaneMatchesReferenceAtManyBatchSizes)
{
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{256}})
        expectLaneIdentity(machine(), mixedParams(), batch);
}

TEST(HotPath, BatchedLaneMatchesReferenceWithTlb)
{
    SystemConfig config = machine();
    config.enableTlb = true;
    expectLaneIdentity(config, mixedParams(), 256);
    expectLaneIdentity(config, mixedParams(), 7);
}

TEST(HotPath, BatchedLaneMatchesReferenceWithPrefetcher)
{
    // A prefetcher disables the same-line data memo (prefetch fills
    // can evict any L1D line and the prefetcher must observe every
    // load); the lanes must still agree exactly.
    for (const char *kind : {"stride", "next-line"}) {
        SCOPED_TRACE(kind);
        SystemConfig config = machine();
        config.hierarchy.prefetcher = kind;
        expectLaneIdentity(config, mixedParams(), 256);
    }
}

TEST(HotPath, BatchedLaneMatchesReferenceWithTage)
{
    // TAGE carries long global history through the batched branch
    // pass; the fused predictAndUpdate must keep the lanes identical.
    SystemConfig config = machine();
    config.branchPredictor = "tage";
    expectLaneIdentity(config, mixedParams(), 256);
    expectLaneIdentity(config, mixedParams(), 7);
}

TEST(HotPath, BatchedLaneMatchesReferenceWithStreamPrefetchers)
{
    // Stream at L1D disables the same-line data memo; stream in the
    // L2 slot keeps it legal. Both placements must agree across
    // lanes, including the prefetch-useful owner-lane stats.
    SystemConfig l1_stream = machine();
    l1_stream.hierarchy.prefetcher = "stream";
    expectLaneIdentity(l1_stream, mixedParams(), 256);

    SystemConfig l2_stream = machine();
    l2_stream.hierarchy.l2Prefetcher = "stream";
    expectLaneIdentity(l2_stream, mixedParams(), 256);
}

TEST(HotPath, BatchedLaneMatchesReferenceWithWayPrediction)
{
    // MRU keeps the data memo legal: a memo-skipped load repeat is a
    // penalty-free correct prediction, bulk-credited after the batch.
    // Utag disables the memo instead. Either way every way-prediction
    // counter and penalty cycle must match the reference lane.
    for (const WayPredictor predictor :
         {WayPredictor::Mru, WayPredictor::Utag}) {
        SCOPED_TRACE(wayPredictorName(predictor));
        SystemConfig config = machine();
        config.hierarchy.l1d.wayPredictor = predictor;
        expectLaneIdentity(config, mixedParams(), 256);
        expectLaneIdentity(config, mixedParams(), 7);
    }
}

TEST(HotPath, BatchedLaneMatchesReferenceWithRandomReplacement)
{
    // Random replacement draws from the cache's RNG on every miss, so
    // any divergence in miss order or count desyncs the stream and
    // cascades -- the strictest ordering check available.
    SystemConfig config = machine();
    config.hierarchy.l1d.policy = ReplacementPolicy::Random;
    config.hierarchy.l2.policy = ReplacementPolicy::Random;
    expectLaneIdentity(config, mixedParams(), 256);
    expectLaneIdentity(config, mixedParams(), 1);
}

TEST(HotPath, BatchedLaneMatchesReferenceStoreHeavy)
{
    // Store-dominated sequential traffic exercises the dirty-line
    // memo rule: a write may only be skipped when the memo'd line is
    // already dirty.
    trace::SyntheticTraceParams params = mixedParams();
    params.loadFrac = 0.10;
    params.storeFrac = 0.40;
    expectLaneIdentity(machine(), params, 256);
    expectLaneIdentity(machine(), params, 7);
}

TEST(HotPath, MixedLanesMatchReference)
{
    // Switching lanes mid-run (as a tool flipping unbatchedStepping
    // between steps would) must not perturb results: the memos are
    // invalidated on every lane switch.
    const trace::SyntheticTraceParams params = mixedParams();
    trace::SyntheticTraceGenerator gen_a(params);
    trace::SyntheticTraceGenerator gen_b(params);
    CpuSimulator mixed(machine(), 42);
    CpuSimulator reference(machine(), 42);

    bool use_batched = true;
    while (true) {
        const std::uint64_t got_a =
            use_batched ? mixed.step(gen_a, 15000)
                        : mixed.stepUnbatched(gen_a, 15000);
        const std::uint64_t got_b = reference.stepUnbatched(gen_b, 15000);
        ASSERT_EQ(got_a, got_b);
        if (got_a < 15000)
            break;
        use_batched = !use_batched;
    }
    expectSimsIdentical(mixed, reference);
}

TEST(HotPath, RunMatchesManualReferenceStepping)
{
    // run() rides the batched lane; a manual reference-lane loop plus
    // finish() must produce the identical SimResult.
    const trace::SyntheticTraceParams params = mixedParams(60000);
    trace::SyntheticTraceGenerator gen_a(params);
    trace::SyntheticTraceGenerator gen_b(params);

    CpuSimulator batched(machine(), 42);
    const SimResult via_run = batched.run(gen_a);

    CpuSimulator reference(machine(), 42);
    while (reference.stepUnbatched(gen_b, 4096) == 4096) {
    }
    const SimResult via_steps = reference.finish(gen_b);

    for (std::size_t i = 0; i < counters::kNumPerfEvents; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        EXPECT_EQ(via_run.counters.get(event),
                  via_steps.counters.get(event))
            << counters::perfEventName(event);
    }
    EXPECT_DOUBLE_EQ(via_run.cycles, via_steps.cycles);
    EXPECT_DOUBLE_EQ(via_run.seconds, via_steps.seconds);
}

TEST(HotPath, PrefillInvalidatesTheLineMemos)
{
    // Interleave prefills (which mutate the caches outside the batch
    // path) with batched stepping; the memos must be forgotten each
    // time or the batched lane would skip real accesses.
    const trace::SyntheticTraceParams params = mixedParams();
    trace::SyntheticTraceGenerator gen_a(params);
    trace::SyntheticTraceGenerator gen_b(params);
    CpuSimulator batched(machine(), 42);
    CpuSimulator reference(machine(), 42);

    for (int round = 0; round < 4; ++round) {
        batched.step(gen_a, 20000);
        reference.stepUnbatched(gen_b, 20000);
        batched.prefillData(0x100000, 64 * 1024, HitLevel::L1);
        reference.prefillData(0x100000, 64 * 1024, HitLevel::L1);
    }
    expectSimsIdentical(batched, reference);
}

/** Every perf counter and the core cycle count agree exactly. */
::testing::AssertionResult
sameCountersAndCycles(const CpuSimulator &a, const CpuSimulator &b)
{
    const counters::CounterSet x = a.snapshot();
    const counters::CounterSet y = b.snapshot();
    for (std::size_t i = 0; i < counters::kNumPerfEvents; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        if (x.get(event) != y.get(event))
            return ::testing::AssertionFailure()
                << counters::perfEventName(event) << ": " << x.get(event)
                << " vs " << y.get(event);
    }
    if (a.core().cycles() != b.core().cycles())
        return ::testing::AssertionFailure()
            << "cycles: " << a.core().cycles() << " vs "
            << b.core().cycles();
    return ::testing::AssertionSuccess();
}

TEST(HotPath, ImportingSiblingMatchesReferenceLane)
{
    // The fan-out clone group, reduced to its parts: a bimodal leader
    // records its memory-side lanes chunk by chunk, and a TAGE sibling
    // with the same hierarchy imports them instead of running its own
    // cache and TLB passes. As in fan-out, the sibling is built on the
    // leader's L3 and never prefilled. The sibling must match a TAGE
    // simulator on the per-op reference lane, and the leader a bimodal
    // one, after every chunk -- so an importing step that touched the
    // borrowed L3 would show up in the leader -- at chunk sizes that
    // split batches every way (1 op, just under and over one 256-op
    // batch, many batches).
    const trace::SyntheticTraceParams params = mixedParams(40000);
    const auto arena =
        std::make_shared<const trace::TraceArena>(
            trace::captureArena(params));
    SystemConfig leader_config = machine();
    leader_config.branchPredictor = "bimodal";
    SystemConfig sibling_config = machine();
    sibling_config.branchPredictor = "tage";

    for (const std::uint64_t chunk :
         {std::uint64_t{1}, std::uint64_t{255}, std::uint64_t{257},
          std::uint64_t{10000}}) {
        SCOPED_TRACE(::testing::Message() << "chunk=" << chunk);
        CpuSimulator leader(leader_config, 42);
        leader.prefillData(0x100000, 256 * 1024, HitLevel::L2);
        CpuSimulator sibling(sibling_config, 42,
                             leader.hierarchy().sharedL3());
        CpuSimulator leader_reference(leader_config, 42);
        leader_reference.prefillData(0x100000, 256 * 1024, HitLevel::L2);
        CpuSimulator reference(sibling_config, 42);
        reference.prefillData(0x100000, 256 * 1024, HitLevel::L2);

        trace::ReplaySource leader_ops(arena);
        trace::ReplaySource sibling_ops(arena);
        trace::ReplaySource leader_reference_ops(arena);
        trace::ReplaySource reference_ops(arena);
        MemoryLaneLog log;
        std::uint64_t consumed = 0;
        while (true) {
            log.clear();
            const std::uint64_t led =
                leader.step(leader_ops, chunk, &log, nullptr);
            // Importing panics unless it consumes the log exactly.
            const std::uint64_t got =
                sibling.step(sibling_ops, chunk, nullptr, &log);
            ASSERT_EQ(got, led);
            ASSERT_EQ(leader_reference.stepUnbatched(leader_reference_ops,
                                                     chunk),
                      got);
            ASSERT_EQ(reference.stepUnbatched(reference_ops, chunk), got);
            consumed += got;
            ASSERT_TRUE(sameCountersAndCycles(leader, leader_reference))
                << "leader after " << consumed << " ops";
            ASSERT_TRUE(sameCountersAndCycles(sibling, reference))
                << "sibling after " << consumed << " ops";
            if (got < chunk)
                break;
        }
        EXPECT_EQ(consumed, params.numOps);
        // Including the shared L3's stats, which only the leader moved.
        expectSimsIdentical(leader, leader_reference);
    }
}

TEST(HotPathDeathTest, ImportingMustConsumeTheLogExactly)
{
    // A log recorded over a larger chunk than the importing step:
    // the sibling consumes a prefix of the batches and must panic
    // rather than leave the rest silently unconsumed.
    const auto arena = std::make_shared<const trace::TraceArena>(
        trace::captureArena(mixedParams(4096)));
    CpuSimulator leader(machine(), 42);
    CpuSimulator sibling(machine(), 42);
    trace::ReplaySource leader_ops(arena);
    trace::ReplaySource sibling_ops(arena);
    MemoryLaneLog log;
    ASSERT_EQ(leader.step(leader_ops, 2048, &log, nullptr), 2048u);
    ASSERT_EQ(log.batches.size(), 2048 / CpuSimulator::kDefaultBatchOps);
    EXPECT_DEATH(sibling.step(sibling_ops, 1024, nullptr, &log),
                 "not consumed exactly");
}

TEST(HotPath, BatchSizeValidationAndDefaults)
{
    CpuSimulator sim(machine());
    EXPECT_EQ(sim.batchOps(), CpuSimulator::kDefaultBatchOps);
    sim.setBatchOps(7);
    EXPECT_EQ(sim.batchOps(), 7u);
    // Zero is meaningless for a results-invariant knob: clamped to
    // the nearest legal value (with a warning), never a panic.
    sim.setBatchOps(0);
    EXPECT_EQ(sim.batchOps(), 1u);
}

} // namespace
} // namespace sim
} // namespace spec17
