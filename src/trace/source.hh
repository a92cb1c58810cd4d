/**
 * @file
 * Abstract micro-op trace source consumed by the CPU simulator: one
 * per-op pull (next(), the reference lane's oracle) and one batched
 * lane pull (nextLanes()) over the same stream.
 */

#ifndef SPEC17_TRACE_SOURCE_HH_
#define SPEC17_TRACE_SOURCE_HH_

#include <cstddef>
#include <cstdint>

#include "isa/uop.hh"
#include "trace/batch.hh"

namespace spec17 {
namespace trace {

/**
 * A finite stream of micro-ops. Sources are pull-based: the per-op
 * reference lane calls next() until it returns false; the simulator's
 * batched lane pulls whole chunks of SoA lanes through nextLanes()
 * (see docs/performance.md).
 *
 * The two surfaces describe one stream: pulling N ops one at a time
 * through next() and pulling them through nextLanes() in chunks of
 * any size must yield the identical op sequence, and the surfaces may
 * be mixed freely at any point of the stream.
 *
 * reset() rewinds to the first micro-op and must reproduce the
 * identical stream (the framework's determinism guarantee hinges on
 * this). The contract is unconditional on how far and in what chunk
 * sizes the stream was consumed: a reset() issued mid-stream -- in
 * particular after a partially filled batch -- replays the same ops
 * from the beginning. The suite runner's retry-with-seed-perturbation
 * and the record/replay tooling both depend on it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produces the next micro-op.
     * @param op output micro-op; untouched when the stream is done.
     * @return true if @p op was produced, false at end of stream.
     */
    virtual bool next(isa::MicroOp &op) = 0;

    /**
     * The batched lane's pull: delivers up to @p n micro-ops and
     * returns the lanes holding them, with @p at set to the slot of
     * the first delivered op and @p got to the number delivered
     * (<= @p n). Semantically equivalent to calling next() @p n
     * times: the delivered ops and the post-call source state are
     * identical, and a short @p got means the stream ended exactly
     * where next() would have returned false; subsequent pulls
     * deliver nothing until reset(). Every delivered op has every
     * lane filled (see MicroOpBatch).
     *
     * The default loops next() into the caller's @p buf from slot 0
     * and returns it; sources on the hot path override it to fill
     * @p buf directly and amortize their per-call overhead (RNG
     * setup, buffered file reads). A source with a resident lane
     * representation -- the replay arena (trace/arena.hh) -- instead
     * returns its own lanes without a copy and leaves @p buf alone.
     * Either way the returned lanes stay valid until the source or
     * @p buf is mutated or destroyed; callers must not write through
     * them.
     */
    virtual const MicroOpBatch &
    nextLanes(MicroOpBatch &buf, std::size_t n, std::size_t &at,
              std::size_t &got)
    {
        buf.ensure(n);
        isa::MicroOp op;
        at = 0;
        got = 0;
        while (got < n && next(op))
            buf.set(got++, op);
        return buf;
    }

    /** Rewinds to the beginning of the identical stream (see the
     *  class comment for the exact contract). */
    virtual void reset() = 0;

    /**
     * Virtual address space the workload reserves beyond what it
     * touches (the paper's VSZ vs RSS gap). Defaults to zero.
     */
    virtual std::uint64_t virtualReserveBytes() const { return 0; }
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_SOURCE_HH_
