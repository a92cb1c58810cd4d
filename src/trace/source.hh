/**
 * @file
 * Abstract micro-op trace source consumed by the CPU simulator.
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
 * (see docs/performance.md), which by default fills them through
 * nextBatchSoA().
 *
 * The three surfaces describe one stream: pulling N ops one at a
 * time through next() and pulling them through nextBatchSoA() or
 * nextLanes() in chunks of any size must yield the identical op
 * sequence, and the surfaces may be mixed freely at any point of the
 * stream.
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
     * Produces up to @p n micro-ops into the SoA lanes of @p out,
     * starting at lane slot @p at. Writers fill every lane of every
     * delivered op (see MicroOpBatch).
     *
     * Semantically equivalent to calling next() @p n times: the ops
     * delivered and the post-call source state are identical. A short
     * return (fewer than @p n ops) means the stream ended -- or, for
     * cancellable sources, that cooperative cancellation engaged --
     * exactly where next() would have returned false; subsequent
     * calls return 0 until reset().
     *
     * The default implementation loops next(); sources on the hot
     * path override it to fill lanes directly and amortize their
     * per-call overhead (RNG setup, phase-boundary checks, buffered
     * file reads).
     *
     * @return number of micro-ops written (<= @p n); lanes are sized
     *         to at least @p at + @p n on entry.
     */
    virtual std::size_t
    nextBatchSoA(MicroOpBatch &out, std::size_t at, std::size_t n)
    {
        out.ensure(at + n);
        isa::MicroOp op;
        std::size_t filled = 0;
        while (filled < n && next(op))
            out.set(at + filled++, op);
        return filled;
    }

    /**
     * The batched lane's pull: delivers up to @p n micro-ops and
     * returns the lanes holding them, with @p at set to the slot of
     * the first delivered op and @p got to the number delivered
     * (<= @p n). The stream contract is that of nextBatchSoA(): the
     * delivered ops and the post-call state are exactly those of an
     * @p n-op pull, and a short @p got has the same end-of-stream /
     * cancellation meaning.
     *
     * The default fills the caller's @p buf from slot 0 through
     * nextBatchSoA() and returns it. A source with a resident lane
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
        at = 0;
        got = nextBatchSoA(buf, 0, n);
        return buf;
    }

    /**
     * True while cooperative cancellation is holding the stream back:
     * a short return in that state does NOT mean the ops ran out, and
     * clearing the cancel flag resumes exactly where the stream
     * stopped. Sources without a cancellation mechanism return false.
     * Combinators (PhasedTrace) consult this to distinguish a child
     * that finished from a child that was paused -- advancing past a
     * merely-paused child would silently drop its remainder.
     */
    virtual bool cancelled() const { return false; }

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
