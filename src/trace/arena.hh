/**
 * @file
 * Capture-once/replay-many trace arenas.
 *
 * A TraceArena holds a fully generated micro-op stream as resident
 * SoA MicroOpBatch lanes. Capturing runs the generator exactly once;
 * every subsequent simulation of the same (profile, seed,
 * trace-config) replays the captured lanes through a ReplaySource,
 * whose batched surface serves the lanes zero-copy (the simulator
 * consumes a view straight into the arena instead of a per-batch
 * regeneration). Replay is draw-for-draw identical to live
 * generation -- the golden tests in tests/trace/arena_test.cc pin it
 * against the unbatched reference lane -- so arena membership is an
 * execution-strategy detail, never semantics (and is therefore
 * excluded from result-cache config keys; see docs/determinism.md).
 *
 * Arenas optionally spill to a versioned on-disk format ("S17A") via
 * the same atomic temp+rename seam the result journal uses, so a
 * budget-evicted arena can be reloaded instead of recaptured.
 */

#ifndef SPEC17_TRACE_ARENA_HH_
#define SPEC17_TRACE_ARENA_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "trace/batch.hh"
#include "trace/source.hh"
#include "trace/synthetic.hh"

namespace spec17 {
namespace trace {

/** A captured micro-op stream: resident lanes plus the stream-level
 *  attributes replay must reproduce. Immutable once captured. */
struct TraceArena
{
    MicroOpBatch lanes;
    /** Ops actually captured (lanes may be over-allocated). */
    std::size_t numOps = 0;
    /** TraceSource::virtualReserveBytes() of the captured source. */
    std::uint64_t virtualReserveBytes = 0;

    /** Resident lane bytes (the byte-budget accounting unit). */
    std::uint64_t byteSize() const;
};

/**
 * Drains @p source to exhaustion (at most @p expected_ops, the
 * caller's knowledge of the stream length) into a fresh arena with
 * one bulk nextBatchSoA pull. The source must be freshly constructed
 * or reset.
 */
TraceArena captureArena(TraceSource &source, std::size_t expected_ops);

/** Captures the stream of a generator built from @p params. */
TraceArena captureArena(const SyntheticTraceParams &params);

/**
 * Canonical one-line description of a synthetic trace configuration:
 * every SyntheticTraceParams field, doubles in hex-float so the key
 * is exact. Two parameter sets describe equal iff they generate the
 * identical stream, making this the arena-store cache key.
 */
std::string describeTraceParams(const SyntheticTraceParams &params);

/** @name S17A spill format (versioned, atomic temp+rename commit) */
/// @{

/** Serializes @p arena to @p path atomically; false on I/O failure. */
bool saveArena(const std::string &path, const TraceArena &arena);

/** Loads an arena spilled by saveArena(); nullptr when the file is
 *  missing, torn, or has a foreign magic/version (the caller then
 *  recaptures -- a bad spill never aborts a run). */
std::unique_ptr<TraceArena> loadArena(const std::string &path);

/// @}

/**
 * Replays a captured arena as a TraceSource. Satisfies the full
 * stream contract: next(), nextBatchSoA() and the zero-copy
 * nextLanes() all deliver the identical op sequence, mixed freely,
 * and reset() rewinds exactly. Supports the same cooperative
 * cancellation surface as SyntheticTraceGenerator so the suite
 * runner can swap one for the other without observable difference.
 *
 * Many ReplaySources may share one arena (each holds its own cursor);
 * the shared_ptr keeps the arena alive across store evictions.
 */
class ReplaySource : public TraceSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const TraceArena> arena);

    bool next(isa::MicroOp &op) override;
    std::size_t nextBatchSoA(MicroOpBatch &out, std::size_t at,
                             std::size_t n) override;
    /** Serves the arena's own lanes; @p buf is never touched. */
    const MicroOpBatch &nextLanes(MicroOpBatch &buf, std::size_t n,
                                  std::size_t &at,
                                  std::size_t &got) override;

    bool
    cancelled() const override
    {
        return cancel_ != nullptr && *cancel_;
    }

    void reset() override { cursor_ = 0; }

    std::uint64_t
    virtualReserveBytes() const override
    {
        return arena_->virtualReserveBytes;
    }

    /** Borrowed cancel flag, same contract as the generator's. */
    void setCancelFlag(const bool *flag) { cancel_ = flag; }

    /** Ops delivered since construction/reset -- the replay twin of
     *  SyntheticTraceGenerator::emittedOps() (telemetry counter). */
    std::uint64_t deliveredOps() const { return cursor_; }

    const TraceArena &arena() const { return *arena_; }

  private:
    std::shared_ptr<const TraceArena> arena_;
    std::size_t cursor_ = 0;
    const bool *cancel_ = nullptr;
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_ARENA_HH_
