#include "trace/file.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace spec17 {
namespace trace {

namespace {

constexpr char kMagic[4] = {'S', '1', '7', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kRecordBytes = 28;
constexpr std::size_t kBufferRecords = 4096;

/** Packs one micro-op into a 28-byte record. */
void
pack(const isa::MicroOp &op, unsigned char *out)
{
    out[0] = static_cast<unsigned char>(op.cls);
    out[1] = static_cast<unsigned char>(op.branch);
    out[2] = static_cast<unsigned char>(
        (op.taken ? 1 : 0) | (op.depOnLoad ? 2 : 0)
        | (op.depOnPrev ? 4 : 0));
    out[3] = op.size;
    std::memcpy(out + 4, &op.pc, 8);
    std::memcpy(out + 12, &op.effAddr, 8);
    std::memcpy(out + 20, &op.target, 8);
}

/** Unpacks a 28-byte record; fatal on a record the simulator cannot
 *  consume (bad enum bytes, or a branch without a branch kind). */
isa::MicroOp
unpack(const unsigned char *in)
{
    if (in[0] >= isa::kNumUopClasses)
        SPEC17_FATAL("corrupt trace record: bad uop class ", int(in[0]));
    if (in[1] > isa::kNumBranchKinds)
        SPEC17_FATAL("corrupt trace record: bad branch kind ", int(in[1]));
    if (static_cast<isa::UopClass>(in[0]) == isa::UopClass::Branch
        && static_cast<isa::BranchKind>(in[1]) == isa::BranchKind::None)
        SPEC17_FATAL("corrupt trace record: branch with kind None");
    isa::MicroOp op;
    op.cls = static_cast<isa::UopClass>(in[0]);
    op.branch = static_cast<isa::BranchKind>(in[1]);
    op.taken = (in[2] & 1) != 0;
    op.depOnLoad = (in[2] & 2) != 0;
    op.depOnPrev = (in[2] & 4) != 0;
    op.size = in[3];
    std::memcpy(&op.pc, in + 4, 8);
    std::memcpy(&op.effAddr, in + 12, 8);
    std::memcpy(&op.target, in + 20, 8);
    return op;
}

} // namespace

std::uint64_t
writeTrace(const std::string &path, TraceSource &source)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        SPEC17_FATAL("cannot open trace file for writing: ", path);

    // Header with a placeholder count, patched at the end.
    std::uint64_t count = 0;
    const std::uint64_t reserve = source.virtualReserveBytes();
    out.write(kMagic, 4);
    out.write(reinterpret_cast<const char *>(&kVersion), 4);
    out.write(reinterpret_cast<const char *>(&count), 8);
    out.write(reinterpret_cast<const char *>(&reserve), 8);

    unsigned char record[kRecordBytes];
    isa::MicroOp op;
    while (source.next(op)) {
        pack(op, record);
        out.write(reinterpret_cast<const char *>(record),
                  kRecordBytes);
        ++count;
    }
    out.seekp(8);
    out.write(reinterpret_cast<const char *>(&count), 8);
    if (!out)
        SPEC17_FATAL("write failure on trace file: ", path);
    return count;
}

FileTrace::FileTrace(const std::string &path) : path_(path)
{
    in_.open(path, std::ios::binary);
    if (!in_)
        SPEC17_FATAL("cannot open trace file: ", path);
    char magic[4];
    std::uint32_t version = 0;
    in_.read(magic, 4);
    in_.read(reinterpret_cast<char *>(&version), 4);
    in_.read(reinterpret_cast<char *>(&count_), 8);
    in_.read(reinterpret_cast<char *>(&reserveBytes_), 8);
    if (!in_ || std::memcmp(magic, kMagic, 4) != 0)
        SPEC17_FATAL("not a spec17 trace file: ", path);
    if (version != kVersion)
        SPEC17_FATAL("trace file version ", version,
                     " unsupported (want ", kVersion, "): ", path);
    // The record count comes from an untrusted header: check it
    // against the file size by division (a multiplication could
    // overflow) so a short or padded file fails here, not mid-run.
    in_.seekg(0, std::ios::end);
    const std::uint64_t body =
        static_cast<std::uint64_t>(in_.tellg()) - kHeaderBytes;
    if (!in_ || body % kRecordBytes != 0 || count_ != body / kRecordBytes)
        SPEC17_FATAL("trace file truncated or corrupt: header says ",
                     count_, " records, file holds ", body / kRecordBytes,
                     " (+", body % kRecordBytes, " bytes): ", path);
    in_.seekg(kHeaderBytes);
    raw_.resize(kBufferRecords * kRecordBytes);
}

void
FileTrace::fill()
{
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(count_ - delivered_, kBufferRecords));
    in_.read(reinterpret_cast<char *>(raw_.data()),
             static_cast<std::streamsize>(want * kRecordBytes));
    if (static_cast<std::size_t>(in_.gcount()) != want * kRecordBytes)
        SPEC17_FATAL("trace file truncated while reading: ", path_);
    rawPos_ = 0;
    rawEnd_ = want;
}

bool
FileTrace::next(isa::MicroOp &op)
{
    if (delivered_ >= count_)
        return false;
    if (rawPos_ == rawEnd_)
        fill();
    op = unpack(raw_.data() + rawPos_++ * kRecordBytes);
    ++delivered_;
    return true;
}

const MicroOpBatch &
FileTrace::nextLanes(MicroOpBatch &buf, std::size_t n, std::size_t &at,
                     std::size_t &got)
{
    buf.ensure(n);
    at = 0;
    got = 0;
    while (got < n && delivered_ < count_) {
        if (rawPos_ == rawEnd_)
            fill();
        const std::size_t take = std::min(n - got, rawEnd_ - rawPos_);
        for (std::size_t i = 0; i < take; ++i)
            buf.set(got + i,
                    unpack(raw_.data() + (rawPos_ + i) * kRecordBytes));
        rawPos_ += take;
        delivered_ += take;
        got += take;
    }
    return buf;
}

void
FileTrace::reset()
{
    in_.clear();
    in_.seekg(kHeaderBytes);
    delivered_ = 0;
    rawPos_ = 0;
    rawEnd_ = 0;
}

std::uint64_t
FileTrace::virtualReserveBytes() const
{
    return reserveBytes_;
}

} // namespace trace
} // namespace spec17
