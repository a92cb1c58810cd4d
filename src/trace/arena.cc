#include "trace/arena.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hh"
#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

constexpr char kMagic[4] = {'S', '1', '7', 'A'};
constexpr std::uint32_t kVersion = 1;

/** Appends one lane's raw bytes to the spill image. */
template <typename T>
void
appendLane(std::string &out, const std::vector<T> &lane, std::size_t n)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "spill lanes must be raw-copyable");
    out.append(reinterpret_cast<const char *>(lane.data()),
               n * sizeof(T));
}

/** Reads one lane's raw bytes back; false on a short image. */
template <typename T>
bool
readLane(std::istream &in, std::vector<T> &lane, std::size_t n)
{
    in.read(reinterpret_cast<char *>(lane.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    return static_cast<std::size_t>(in.gcount()) == n * sizeof(T);
}

} // namespace

std::uint64_t
TraceArena::byteSize() const
{
    const std::size_t n = lanes.capacity();
    return static_cast<std::uint64_t>(
        n * (sizeof(lanes.cls[0]) + sizeof(lanes.kind[0])
             + sizeof(lanes.pc[0]) + sizeof(lanes.addr[0])
             + sizeof(lanes.accessSize[0]) + sizeof(lanes.taken[0])
             + sizeof(lanes.target[0]) + sizeof(lanes.depOnLoad[0])
             + sizeof(lanes.depOnPrev[0])));
}

TraceArena
captureArena(TraceSource &source, std::size_t expected_ops)
{
    TraceArena arena;
    arena.lanes.ensure(expected_ops);
    arena.numOps = source.nextBatchSoA(arena.lanes, 0, expected_ops);
    arena.virtualReserveBytes = source.virtualReserveBytes();
    return arena;
}

TraceArena
captureArena(const SyntheticTraceParams &params)
{
    SyntheticTraceGenerator generator(params);
    return captureArena(generator,
                        static_cast<std::size_t>(params.numOps));
}

std::string
describeTraceParams(const SyntheticTraceParams &params)
{
    std::ostringstream out;
    out << std::hexfloat;
    out << "trace-v1|ops=" << params.numOps << "|seed=" << params.seed
        << "|ld=" << params.loadFrac << "|st=" << params.storeFrac
        << "|br=" << params.branchFrac << "|fp=" << params.fpFrac
        << "|mul=" << params.mulFrac << "|div=" << params.divFrac
        << "|cond=" << params.condFrac
        << "|djmp=" << params.directJumpFrac
        << "|call=" << params.nearCallFrac
        << "|ijmp=" << params.indirectJumpFrac
        << "|ret=" << params.nearReturnFrac
        << "|bsites=" << params.numBranchSites
        << "|hard=" << params.hardBranchFrac
        << "|bias=" << params.easyTakenBias
        << "|brdep=" << params.branchDepOnLoadFrac
        << "|cdep=" << params.computeDepFrac
        << "|itgt=" << params.indirectTargets
        << "|iswitch=" << params.indirectSwitchProb
        << "|code=" << params.codeFootprintBytes
        << "|hot=" << params.hotCodeFrac
        << "|isites=" << params.numIndirectSites
        << "|extra=" << params.extraVirtualBytes
        << "|off=" << params.addressOffset;
    for (const MemoryRegionParams &region : params.regions) {
        out << "|r=" << accessPatternName(region.pattern) << ','
            << region.sizeBytes << ',' << region.strideBytes << ','
            << region.loadWeight << ',' << region.storeWeight;
    }
    return out.str();
}

bool
saveArena(const std::string &path, const TraceArena &arena)
{
    const std::size_t n = arena.numOps;
    std::string image;
    image.reserve(24 + static_cast<std::size_t>(arena.byteSize()));
    image.append(kMagic, 4);
    image.append(reinterpret_cast<const char *>(&kVersion), 4);
    const std::uint64_t count = n;
    image.append(reinterpret_cast<const char *>(&count), 8);
    image.append(
        reinterpret_cast<const char *>(&arena.virtualReserveBytes), 8);
    appendLane(image, arena.lanes.cls, n);
    appendLane(image, arena.lanes.kind, n);
    appendLane(image, arena.lanes.pc, n);
    appendLane(image, arena.lanes.addr, n);
    appendLane(image, arena.lanes.accessSize, n);
    appendLane(image, arena.lanes.taken, n);
    appendLane(image, arena.lanes.target, n);
    appendLane(image, arena.lanes.depOnLoad, n);
    appendLane(image, arena.lanes.depOnPrev, n);
    return writeFileAtomic(path, image);
}

std::unique_ptr<TraceArena>
loadArena(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return nullptr;
    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    std::uint64_t reserve = 0;
    in.read(magic, 4);
    in.read(reinterpret_cast<char *>(&version), 4);
    in.read(reinterpret_cast<char *>(&count), 8);
    in.read(reinterpret_cast<char *>(&reserve), 8);
    if (!in || std::memcmp(magic, kMagic, 4) != 0
        || version != kVersion) {
        warn("ignoring unreadable arena spill (bad header): ", path);
        return nullptr;
    }
    auto arena = std::make_unique<TraceArena>();
    const std::size_t n = static_cast<std::size_t>(count);
    arena->lanes.ensure(n);
    arena->numOps = n;
    arena->virtualReserveBytes = reserve;
    const bool ok = readLane(in, arena->lanes.cls, n)
        && readLane(in, arena->lanes.kind, n)
        && readLane(in, arena->lanes.pc, n)
        && readLane(in, arena->lanes.addr, n)
        && readLane(in, arena->lanes.accessSize, n)
        && readLane(in, arena->lanes.taken, n)
        && readLane(in, arena->lanes.target, n)
        && readLane(in, arena->lanes.depOnLoad, n)
        && readLane(in, arena->lanes.depOnPrev, n);
    if (!ok) {
        warn("ignoring truncated arena spill: ", path);
        return nullptr;
    }
    // Reject out-of-range enum bytes so a corrupt spill cannot feed
    // the simulator undefined class values.
    for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::uint8_t>(arena->lanes.cls[i])
                >= isa::kNumUopClasses
            || static_cast<std::uint8_t>(arena->lanes.kind[i])
                > isa::kNumBranchKinds) {
            warn("ignoring corrupt arena spill (bad op record): ",
                 path);
            return nullptr;
        }
    }
    return arena;
}

ReplaySource::ReplaySource(std::shared_ptr<const TraceArena> arena)
    : arena_(std::move(arena))
{
    SPEC17_ASSERT(arena_ != nullptr, "ReplaySource needs an arena");
}

bool
ReplaySource::next(isa::MicroOp &op)
{
    if (cursor_ >= arena_->numOps || cancelled())
        return false;
    op = arena_->lanes.get(cursor_++);
    return true;
}

std::size_t
ReplaySource::nextBatchSoA(MicroOpBatch &out, std::size_t at,
                           std::size_t n)
{
    out.ensure(at + n);
    if (cancelled())
        return 0;
    const std::size_t m = std::min(n, arena_->numOps - cursor_);
    const MicroOpBatch &lanes = arena_->lanes;
    std::memcpy(out.cls.data() + at, lanes.cls.data() + cursor_,
                m * sizeof(lanes.cls[0]));
    std::memcpy(out.kind.data() + at, lanes.kind.data() + cursor_,
                m * sizeof(lanes.kind[0]));
    std::memcpy(out.pc.data() + at, lanes.pc.data() + cursor_,
                m * sizeof(lanes.pc[0]));
    std::memcpy(out.addr.data() + at, lanes.addr.data() + cursor_,
                m * sizeof(lanes.addr[0]));
    std::memcpy(out.accessSize.data() + at,
                lanes.accessSize.data() + cursor_, m);
    std::memcpy(out.taken.data() + at, lanes.taken.data() + cursor_, m);
    std::memcpy(out.target.data() + at, lanes.target.data() + cursor_,
                m * sizeof(lanes.target[0]));
    std::memcpy(out.depOnLoad.data() + at,
                lanes.depOnLoad.data() + cursor_, m);
    std::memcpy(out.depOnPrev.data() + at,
                lanes.depOnPrev.data() + cursor_, m);
    cursor_ += m;
    return m;
}

const MicroOpBatch &
ReplaySource::nextLanes(MicroOpBatch &, std::size_t n, std::size_t &at,
                        std::size_t &got)
{
    at = cursor_;
    got = cancelled() ? 0 : std::min(n, arena_->numOps - cursor_);
    cursor_ += got;
    return arena_->lanes;
}

} // namespace trace
} // namespace spec17
