/**
 * @file
 * Trace-arena golden tests: a captured arena replayed through
 * ReplaySource must be draw-for-draw identical to live generation on
 * every delivery surface (next(), nextBatchSoA(), the zero-copy
 * nextLanes()), mixed freely and across reset(); the S17A
 * spill format must round-trip an arena exactly and reject torn or
 * foreign files by returning nullptr (never aborting a run).
 */

#include "trace/arena.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.hh"

namespace spec17 {
namespace trace {
namespace {

SyntheticTraceParams
params(std::uint64_t num_ops = 20000, std::uint64_t seed = 99)
{
    SyntheticTraceParams p;
    p.numOps = num_ops;
    p.seed = seed;
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.regions = {
        {AccessPattern::Sequential, 256 * 1024, 64, 1.0, 1.0},
        {AccessPattern::PointerChase, 2 * 1024 * 1024, 64, 1.0, 0.5},
    };
    return p;
}

std::vector<isa::MicroOp>
drainPerOp(TraceSource &source)
{
    std::vector<isa::MicroOp> ops;
    isa::MicroOp op;
    while (source.next(op))
        ops.push_back(op);
    return ops;
}

/** Drains through nextBatchSoA at a nonzero lane offset. */
std::vector<isa::MicroOp>
drainBatched(TraceSource &source, std::size_t batch)
{
    constexpr std::size_t kAt = 3;
    std::vector<isa::MicroOp> ops;
    MicroOpBatch buf;
    while (true) {
        const std::size_t got = source.nextBatchSoA(buf, kAt, batch);
        for (std::size_t i = 0; i < got; ++i)
            ops.push_back(buf.get(kAt + i));
        if (got < batch)
            return ops;
    }
}

void
expectSameStream(const std::vector<isa::MicroOp> &a,
                 const std::vector<isa::MicroOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cls, b[i].cls) << "op " << i;
        EXPECT_EQ(a[i].branch, b[i].branch) << "op " << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << "op " << i;
        EXPECT_EQ(a[i].effAddr, b[i].effAddr) << "op " << i;
        EXPECT_EQ(a[i].size, b[i].size) << "op " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "op " << i;
        EXPECT_EQ(a[i].target, b[i].target) << "op " << i;
        EXPECT_EQ(a[i].depOnLoad, b[i].depOnLoad) << "op " << i;
        EXPECT_EQ(a[i].depOnPrev, b[i].depOnPrev) << "op " << i;
        if (::testing::Test::HasFailure())
            return; // one divergence is enough diagnostics
    }
}

std::shared_ptr<const TraceArena>
capture(const SyntheticTraceParams &p)
{
    return std::make_shared<const TraceArena>(captureArena(p));
}

TEST(Arena, CaptureDrainsTheWholeStreamOnce)
{
    const SyntheticTraceParams p = params();
    SyntheticTraceGenerator live(p);
    const std::vector<isa::MicroOp> reference = drainPerOp(live);

    const auto arena = capture(p);
    EXPECT_EQ(arena->numOps, reference.size());
    EXPECT_EQ(arena->virtualReserveBytes, live.virtualReserveBytes());
    EXPECT_GT(arena->byteSize(), 0u);
}

TEST(Arena, ReplayMatchesLivePerOp)
{
    const SyntheticTraceParams p = params();
    SyntheticTraceGenerator live(p);
    ReplaySource replay(capture(p));
    expectSameStream(drainPerOp(live), drainPerOp(replay));
    EXPECT_EQ(replay.virtualReserveBytes(), live.virtualReserveBytes());
}

TEST(Arena, ReplayMatchesLiveAtAnyBatchSize)
{
    const SyntheticTraceParams p = params();
    SyntheticTraceGenerator live(p);
    const std::vector<isa::MicroOp> reference = drainPerOp(live);
    for (const std::size_t batch :
         {std::size_t(1), std::size_t(7), std::size_t(1000),
          std::size_t(4096), std::size_t(100000)}) {
        ReplaySource replay(capture(p));
        expectSameStream(reference, drainBatched(replay, batch));
    }
}

TEST(Arena, SurfacesMixFreelyAndResetRewindsExactly)
{
    const SyntheticTraceParams p = params();
    SyntheticTraceGenerator live(p);
    const std::vector<isa::MicroOp> reference = drainPerOp(live);

    ReplaySource replay(capture(p));
    std::vector<isa::MicroOp> mixed;
    isa::MicroOp op;
    for (int i = 0; i < 13 && replay.next(op); ++i)
        mixed.push_back(op);
    MicroOpBatch lanes;
    std::size_t got = replay.nextBatchSoA(lanes, 0, 777);
    for (std::size_t i = 0; i < got; ++i)
        mixed.push_back(lanes.get(i));
    got = replay.nextBatchSoA(lanes, 0, 500);
    for (std::size_t i = 0; i < got; ++i)
        mixed.push_back(lanes.get(i));
    std::size_t at = 0;
    const MicroOpBatch &zero = replay.nextLanes(lanes, 1000, at, got);
    for (std::size_t i = 0; i < got; ++i)
        mixed.push_back(zero.get(at + i));
    while (replay.next(op))
        mixed.push_back(op);
    expectSameStream(reference, mixed);

    // reset() after a fully consumed stream replays it from the top.
    replay.reset();
    EXPECT_EQ(replay.deliveredOps(), 0u);
    expectSameStream(reference, drainPerOp(replay));
}

TEST(Arena, NextLanesIsZeroCopyIntoTheArena)
{
    const SyntheticTraceParams p = params(5000);
    const auto arena = capture(p);
    ReplaySource replay(arena);

    MicroOpBatch buf;
    std::size_t at = 0, got = 0;
    const MicroOpBatch *lanes = &replay.nextLanes(buf, 1024, at, got);
    // Pointer identity: the source serves the arena's own lanes, not
    // a copy (the caller's buffer stays untouched), and successive
    // pulls advance the slot offset.
    EXPECT_EQ(lanes, &arena->lanes);
    EXPECT_EQ(buf.capacity(), 0u);
    EXPECT_EQ(at, 0u);
    EXPECT_EQ(got, 1024u);
    lanes = &replay.nextLanes(buf, 1024, at, got);
    EXPECT_EQ(lanes, &arena->lanes);
    EXPECT_EQ(at, 1024u);

    // The tail pull is short, then the stream reports exhaustion.
    std::size_t drained = 2048;
    while (true) {
        lanes = &replay.nextLanes(buf, 1024, at, got);
        ASSERT_EQ(lanes, &arena->lanes);
        drained += got;
        if (got < 1024)
            break;
    }
    EXPECT_EQ(drained, arena->numOps);
    EXPECT_EQ(buf.capacity(), 0u);
}

TEST(Arena, SpillRoundTripsExactly)
{
    const SyntheticTraceParams p = params(9000, 1234);
    const auto arena = capture(p);
    const std::string path =
        std::string(::testing::TempDir()) + "/arena_roundtrip.s17a";
    ASSERT_TRUE(saveArena(path, *arena));

    std::unique_ptr<TraceArena> loaded = loadArena(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->numOps, arena->numOps);
    EXPECT_EQ(loaded->virtualReserveBytes, arena->virtualReserveBytes);
    EXPECT_EQ(loaded->byteSize(), arena->byteSize());
    ReplaySource original(arena);
    ReplaySource reloaded(
        std::shared_ptr<const TraceArena>(std::move(loaded)));
    expectSameStream(drainPerOp(original), drainPerOp(reloaded));
    std::remove(path.c_str());
}

TEST(Arena, LoadRejectsMissingTornAndForeignFiles)
{
    const std::string base = ::testing::TempDir();
    EXPECT_EQ(loadArena(base + "/no_such_arena.s17a"), nullptr);

    // Torn spill: a valid file truncated mid-lanes must be rejected,
    // not partially loaded.
    const SyntheticTraceParams p = params(4000);
    const auto arena = capture(p);
    const std::string path = base + "/arena_torn.s17a";
    ASSERT_TRUE(saveArena(path, *arena));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size() / 2));
    torn.close();
    EXPECT_EQ(loadArena(path), nullptr);

    // Foreign magic: not an S17A file at all.
    std::ofstream foreign(path, std::ios::binary | std::ios::trunc);
    foreign << "definitely not an arena";
    foreign.close();
    EXPECT_EQ(loadArena(path), nullptr);
    std::remove(path.c_str());
}

TEST(Arena, DescribeTraceParamsIsAnExactKey)
{
    const SyntheticTraceParams a = params();
    EXPECT_EQ(describeTraceParams(a), describeTraceParams(params()));

    SyntheticTraceParams b = params();
    b.seed = 100;
    EXPECT_NE(describeTraceParams(a), describeTraceParams(b));

    // Doubles are keyed exactly (hex-float), so a change below any
    // decimal rounding still produces a distinct key.
    SyntheticTraceParams c = params();
    c.loadFrac = a.loadFrac + 1e-15;
    EXPECT_NE(describeTraceParams(a), describeTraceParams(c));
}

} // namespace
} // namespace trace
} // namespace spec17
