#include "trace/phased.hh"

#include "util/logging.hh"

namespace spec17 {
namespace trace {

PhasedTrace::PhasedTrace(std::vector<std::shared_ptr<TraceSource>> phases)
    : phases_(std::move(phases))
{
    SPEC17_ASSERT(!phases_.empty(), "phased trace needs >= 1 phase");
    for (const auto &phase : phases_)
        SPEC17_ASSERT(phase != nullptr, "null phase source");
}

bool
PhasedTrace::next(isa::MicroOp &op)
{
    while (current_ < phases_.size()) {
        if (phases_[current_]->next(op))
            return true;
        ++current_;
    }
    return false;
}

const MicroOpBatch &
PhasedTrace::nextLanes(MicroOpBatch &buf, std::size_t n, std::size_t &at,
                       std::size_t &got)
{
    // A pull one child serves alone -- in full, or short as the last
    // phase ends -- returns that child's lanes; a pull spanning a
    // boundary is stitched into buf.
    at = 0;
    got = 0;
    while (got < n && current_ < phases_.size()) {
        const std::size_t want = n - got;
        std::size_t child_at = 0;
        std::size_t child_got = 0;
        const MicroOpBatch &lanes = phases_[current_]->nextLanes(
            childBuf_, want, child_at, child_got);
        if (child_got < want)
            ++current_;
        if (got == 0 && (child_got == want || current_ == phases_.size())) {
            at = child_at;
            got = child_got;
            return lanes;
        }
        buf.copyFrom(lanes, child_at, child_got, got);
        got += child_got;
    }
    return buf;
}

void
PhasedTrace::reset()
{
    for (const auto &phase : phases_)
        phase->reset();
    current_ = 0;
}

std::uint64_t
PhasedTrace::virtualReserveBytes() const
{
    std::uint64_t most = 0;
    for (const auto &phase : phases_) {
        if (phase->virtualReserveBytes() > most)
            most = phase->virtualReserveBytes();
    }
    return most;
}

} // namespace trace
} // namespace spec17
