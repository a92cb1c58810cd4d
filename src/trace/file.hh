/**
 * @file
 * Trace persistence: write any TraceSource to a compact binary file
 * and replay it later. This is the bring-your-own-trace surface: a
 * user can generate traces elsewhere (e.g. from a binary-
 * instrumentation tool), convert them to this format, and
 * characterize them on the simulated machine.
 *
 * Format (little-endian):
 *   header: magic "S17T", u32 version, u64 record count,
 *           u64 virtual-reserve bytes
 *   records: packed MicroOp fields, 28 bytes each
 */

#ifndef SPEC17_TRACE_FILE_HH_
#define SPEC17_TRACE_FILE_HH_

#include <fstream>
#include <string>
#include <vector>

#include "trace/source.hh"

namespace spec17 {
namespace trace {

/**
 * Drains @p source into the trace file at @p path.
 * @return number of micro-ops written. Fatal on I/O failure.
 */
std::uint64_t writeTrace(const std::string &path, TraceSource &source);

/**
 * Streams a trace file from disk. Records are read through one
 * fixed-size raw buffer and unpacked on delivery, whether per op
 * (next) or into lanes (nextBatchSoA); reset() rewinds to the first
 * record.
 */
class FileTrace : public TraceSource
{
  public:
    /** Opens and validates @p path; fatal on missing/corrupt files. */
    explicit FileTrace(const std::string &path);

    bool next(isa::MicroOp &op) override;
    std::size_t nextBatchSoA(MicroOpBatch &out, std::size_t at,
                             std::size_t n) override;
    void reset() override;
    std::uint64_t virtualReserveBytes() const override;

    /** Total records in the file. */
    std::uint64_t size() const { return count_; }

  private:
    /** Reads the next run of raw records into raw_ once it is drained
     *  (fatal on a short read); both delivery surfaces unpack from
     *  it. */
    void fill();

    std::string path_;
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t reserveBytes_ = 0;
    std::uint64_t delivered_ = 0;
    /** Raw packed records; [rawPos_, rawEnd_) are not yet delivered. */
    std::vector<unsigned char> raw_;
    std::size_t rawPos_ = 0;
    std::size_t rawEnd_ = 0;
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_FILE_HH_
