/**
 * @file
 * Result digests of the benchmark's workloads: one 64-bit FNV-1a hash
 * over a canonical rendering of every result a campaign returns. Two
 * runs of the same campaign at the same seed must produce the same
 * digest, so a digest that moves means the results changed.
 */

#ifndef SPEC17_PERFBENCH_DIGEST_HH_
#define SPEC17_PERFBENCH_DIGEST_HH_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "corun/analysis.hh"
#include "corun/runner.hh"
#include "explore/runner.hh"
#include "suite/runner.hh"

namespace spec17 {
namespace perfbench {

/** Incremental FNV-1a over typed fields; each field is terminated so
 *  that ("ab","c") and ("a","bc") hash differently. */
class Digest
{
  public:
    Digest &
    add(std::string_view text)
    {
        for (unsigned char c : text)
            mix(c);
        mix(0xff);
        return *this;
    }

    Digest &
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<unsigned char>(value >> (8 * i)));
        return *this;
    }

    /** Doubles enter by their shortest exact decimal rendering. */
    Digest &
    add(double value)
    {
        char text[32];
        std::snprintf(text, sizeof text, "%.17g", value);
        return add(std::string_view(text));
    }

    Digest &add(bool value) { return add(std::uint64_t(value ? 1 : 0)); }

    /** 16 lowercase hex digits. */
    std::string
    hex() const
    {
        char text[17];
        std::snprintf(text, sizeof text, "%016llx",
                      static_cast<unsigned long long>(state_));
        return text;
    }

  private:
    void
    mix(unsigned char byte)
    {
        state_ ^= byte;
        state_ *= 0x100000001b3ULL;
    }

    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** One pair: identity, error state and every counter. */
inline void
addPair(Digest &digest, const suite::PairResult &pair)
{
    digest.add(pair.name).add(pair.errored).add(
        std::uint64_t(pair.attempts));
    for (std::size_t e = 0; e < counters::kNumPerfEvents; ++e)
        digest.add(pair.counters.get(static_cast<counters::PerfEvent>(e)));
}

inline void
addPairs(Digest &digest, const std::vector<suite::PairResult> &pairs)
{
    for (const suite::PairResult &pair : pairs)
        addPair(digest, pair);
}

/** The explore Pareto table: score, IPC and frontier marks. */
inline void
addPoints(Digest &digest, const std::vector<explore::PointResult> &points)
{
    for (const explore::PointResult &point : points) {
        digest.add(point.point.axis)
            .add(point.point.label)
            .add(point.sse)
            .add(point.meanIpc)
            .add(std::uint64_t(point.pairs))
            .add(std::uint64_t(point.errored))
            .add(point.dominated)
            .add(point.knee);
    }
}

/** Every member result of every co-run group. */
inline void
addGroups(Digest &digest, const std::vector<corun::CorunResult> &groups)
{
    for (const corun::CorunResult &group : groups) {
        digest.add(group.name);
        for (std::uint32_t mask : group.masks)
            digest.add(std::uint64_t(mask));
        for (const corun::MemberResult &m : group.members) {
            digest.add(m.name)
                .add(m.cycles)
                .add(m.soloCycles)
                .add(m.instructions)
                .add(m.l3Hits)
                .add(m.l3Misses)
                .add(m.evictionsInflicted)
                .add(m.evictionsSuffered)
                .add(m.occupancyLines);
        }
    }
}

/** The co-run Pareto table over way splits. */
inline void
addParetoRows(Digest &digest, const std::vector<corun::ParetoRow> &rows)
{
    for (const corun::ParetoRow &row : rows) {
        digest.add(row.pair)
            .add(row.partition)
            .add(row.throughput)
            .add(row.worstSlowdown)
            .add(row.dominated);
    }
}

} // namespace perfbench
} // namespace spec17

#endif // SPEC17_PERFBENCH_DIGEST_HH_
