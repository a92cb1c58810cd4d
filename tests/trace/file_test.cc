#include "trace/file.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "trace/kernels.hh"
#include "trace/synthetic.hh"

#include "sim/simulator.hh"

namespace spec17 {
namespace trace {
namespace {

std::string
tempTrace(const char *tag)
{
    return std::string(::testing::TempDir()) + "/spec17_trace_" + tag
        + ".s17t";
}

TEST(TraceFile, RoundTripsEveryField)
{
    SyntheticTraceParams params;
    params.numOps = 5000;
    params.regions = {
        {AccessPattern::Random, 1 << 20, 64, 1.0, 1.0},
        {AccessPattern::PointerChase, 1 << 20, 64, 0.3, 0.0},
    };
    SyntheticTraceGenerator original(params);

    const std::string path = tempTrace("roundtrip");
    EXPECT_EQ(writeTrace(path, original), 5000u);

    original.reset();
    FileTrace replay(path);
    EXPECT_EQ(replay.size(), 5000u);
    EXPECT_EQ(replay.virtualReserveBytes(),
              original.virtualReserveBytes());

    isa::MicroOp a, b;
    std::uint64_t compared = 0;
    while (original.next(a)) {
        ASSERT_TRUE(replay.next(b)) << "record " << compared;
        ASSERT_EQ(a.cls, b.cls);
        ASSERT_EQ(a.branch, b.branch);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.effAddr, b.effAddr);
        ASSERT_EQ(a.size, b.size);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.target, b.target);
        ASSERT_EQ(a.depOnLoad, b.depOnLoad);
        ASSERT_EQ(a.depOnPrev, b.depOnPrev);
        ++compared;
    }
    EXPECT_FALSE(replay.next(b));
    EXPECT_EQ(compared, 5000u);
    std::remove(path.c_str());
}

TEST(TraceFile, ResetReplaysFromStart)
{
    StreamKernel kernel(4096, 100, true);
    const std::string path = tempTrace("reset");
    writeTrace(path, kernel);
    FileTrace replay(path);
    isa::MicroOp op;
    ASSERT_TRUE(replay.next(op));
    const auto first_pc = op.pc;
    while (replay.next(op)) {
    }
    replay.reset();
    ASSERT_TRUE(replay.next(op));
    EXPECT_EQ(op.pc, first_pc);
    std::remove(path.c_str());
}

TEST(TraceFile, SpansMultipleReadBuffers)
{
    // More than one 4096-record buffer.
    StreamKernel kernel(1 << 20, 5000, true); // 20000 ops
    const std::string path = tempTrace("buffers");
    EXPECT_EQ(writeTrace(path, kernel), 20000u);
    FileTrace replay(path);
    isa::MicroOp op;
    std::uint64_t count = 0;
    while (replay.next(op))
        ++count;
    EXPECT_EQ(count, 20000u);
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, RejectsMissingAndCorruptFiles)
{
    EXPECT_EXIT(FileTrace("/nonexistent/path.s17t"),
                ::testing::ExitedWithCode(1), "cannot open");

    const std::string path = tempTrace("corrupt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace";
    }
    EXPECT_EXIT(FileTrace{path}, ::testing::ExitedWithCode(1),
                "not a spec17 trace");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, TruncationIsDetected)
{
    StreamKernel kernel(4096, 100);
    const std::string path = tempTrace("truncated");
    writeTrace(path, kernel);
    // Chop the last record in half.
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        const auto full = in.tellg();
        std::ifstream src(path, std::ios::binary);
        std::vector<char> bytes(static_cast<std::size_t>(full) - 10);
        src.read(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    // The header's record count no longer matches the file size, so
    // opening it is a contained user error, not a mid-run abort.
    EXPECT_EXIT(FileTrace{path}, ::testing::ExitedWithCode(1),
                "truncated");
    std::remove(path.c_str());
}

/** Emits one fixed op, @p count times. */
class RepeatOp : public TraceSource
{
  public:
    RepeatOp(const isa::MicroOp &op, std::uint64_t count)
        : op_(op), count_(count)
    {
    }

    bool
    next(isa::MicroOp &op) override
    {
        if (emitted_ >= count_)
            return false;
        op = op_;
        ++emitted_;
        return true;
    }

    void reset() override { emitted_ = 0; }

  private:
    isa::MicroOp op_;
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
};

TEST(TraceFileDeathTest, BranchWithoutKindExitsContained)
{
    // A well-formed record the simulator cannot consume: a branch
    // whose kind is None. Replaying it must fail as a user error
    // (exit 1) at decode, not panic inside the simulator.
    isa::MicroOp op;
    op.cls = isa::UopClass::Branch;
    op.branch = isa::BranchKind::None;
    op.pc = 0x400000;
    RepeatOp source(op, 10);
    const std::string path = tempTrace("branch_none");
    ASSERT_EQ(writeTrace(path, source), 10u);
    EXPECT_EXIT(
        {
            FileTrace replay(path);
            sim::CpuSimulator sim(
                sim::SystemConfig::haswellXeonE52650Lv3());
            sim.run(replay);
        },
        ::testing::ExitedWithCode(1), "kind None");
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayedTraceDrivesTheSimulatorIdentically)
{
    SyntheticTraceParams params;
    params.numOps = 20000;
    params.regions = {
        {AccessPattern::Random, 4 << 20, 64, 1.0, 1.0},
    };
    SyntheticTraceGenerator live(params);
    const std::string path = tempTrace("simdrive");
    writeTrace(path, live);
    live.reset();
    FileTrace replay(path);

    sim::CpuSimulator sim_live(sim::SystemConfig::haswellXeonE52650Lv3());
    sim::CpuSimulator sim_replay(
        sim::SystemConfig::haswellXeonE52650Lv3());
    const auto live_result = sim_live.run(live);
    const auto replay_result = sim_replay.run(replay);
    EXPECT_DOUBLE_EQ(live_result.cycles, replay_result.cycles);
    EXPECT_EQ(live_result.counters.get(
                  counters::PerfEvent::MemLoadUopsRetiredL1Miss),
              replay_result.counters.get(
                  counters::PerfEvent::MemLoadUopsRetiredL1Miss));
}

} // namespace
} // namespace trace
} // namespace spec17
