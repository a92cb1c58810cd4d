/**
 * @file
 * Single-core trace-driven CPU simulator: wires the trace source,
 * branch unit, cache hierarchy, footprint tracker and core timing
 * model together and populates a perf CounterSet, the simulated
 * equivalent of running one application under `perf stat`.
 */

#ifndef SPEC17_SIM_SIMULATOR_HH_
#define SPEC17_SIM_SIMULATOR_HH_

#include <memory>
#include <vector>

#include "counters/perf_event.hh"
#include "sim/branch.hh"
#include "sim/core_model.hh"
#include "sim/footprint.hh"
#include "sim/hierarchy.hh"
#include "sim/system_config.hh"
#include "sim/tlb.hh"
#include "trace/source.hh"

namespace spec17 {
namespace sim {

/** Outcome of one simulated run. */
struct SimResult
{
    counters::CounterSet counters;
    double cycles = 0.0;
    double seconds = 0.0;

    /** inst_retired.any / cpu_clk_unhalted.ref_tsc, the paper's IPC. */
    double ipc() const;
};

/**
 * Recorded memory-side outcomes of a stepped chunk, batch by batch:
 * the post-TLB scratch lanes (fetch stall, memory latency, L1-miss
 * and DRAM flags), the op-index lists, and the counter deltas the
 * cache and TLB passes produced. A simulator with the identical
 * hierarchy, TLB and core configuration consuming the identical
 * micro-op stream computes exactly these values -- so a clone-group
 * sibling in multi-point fan-out can import the leader's log
 * (CpuSimulator::step's @p import) instead of running its own cache
 * and TLB passes, and needs no prefilled cache state at all. Only the
 * branch unit (and the timing it feeds) runs per sibling.
 *
 * One log records one stepped chunk (step's @p record), and one
 * importing step() consumes it exactly: every recorded batch, no
 * more, no fewer. clear() and reuse it per chunk so the lane buffers
 * stay allocated.
 */
struct MemoryLaneLog
{
    /** One consumeBatch call's worth of recorded outcomes. */
    struct Batch
    {
        std::uint32_t n = 0; //!< ops in the batch (alignment check)
        std::uint32_t laneOffset = 0;   //!< into the per-op lanes
        std::uint32_t memOffset = 0;    //!< into memIdx
        std::uint32_t memCount = 0;
        std::uint32_t branchOffset = 0; //!< into branchIdx
        std::uint32_t branchCount = 0;
        std::uint64_t numLoads = 0;
        std::uint64_t numStores = 0;
        std::uint64_t loadsAt[4] = {0, 0, 0, 0};
        std::uint64_t itlbWalks = 0;
        std::uint64_t dtlbWalks = 0;
    };

    std::vector<Batch> batches;
    /** Per-op lanes, all batches concatenated (see Batch::laneOffset). */
    std::vector<unsigned> fetchStall;
    std::vector<unsigned> memLatency;
    std::vector<std::uint8_t> l1Miss;
    std::vector<std::uint8_t> dram;
    /** Op-index lists (indices are within their batch). */
    std::vector<std::uint32_t> memIdx;
    std::vector<std::uint32_t> branchIdx;

    void
    clear()
    {
        batches.clear();
        fetchStall.clear();
        memLatency.clear();
        l1Miss.clear();
        dram.clear();
        memIdx.clear();
        branchIdx.clear();
    }
};

/**
 * One core with private L1I/L1D/L2 and an (optionally shared) L3.
 * Construct per run; state is not reusable across runs.
 */
class CpuSimulator
{
  public:
    /**
     * @param config machine description.
     * @param seed randomness seed for stochastic components.
     * @param shared_l3 optional L3 shared with other simulators.
     * @param shared_bus optional DRAM channel shared with other
     *        simulators (multicore bandwidth contention).
     * @param recycle optional dead simulator whose large heap buffers
     *        (cache lanes, batch lanes, scratch, memos) this one
     *        adopts before re-initializing them. Results are
     *        bit-identical to a fresh construction -- recycling only
     *        skips page-faulting allocations, which dominate
     *        construction cost in multi-point fan-out loops. The
     *        donor must not be used afterwards.
     * @param recycle_dirty skip resetting the cache-hierarchy lanes
     *        at construction; ONLY legal when the caller immediately
     *        calls copyPrefillFrom() (which copy-assigns the complete
     *        cache state) before the simulator consumes any traffic.
     *        Fan-out clone-group siblings pass true: resetting
     *        megabytes of lanes that the leader's state overwrites a
     *        moment later is pure memory traffic. Requires a private
     *        L3 (copyPrefillFrom does too).
     */
    explicit CpuSimulator(const SystemConfig &config,
                          std::uint64_t seed = 0,
                          std::shared_ptr<SetAssocCache> shared_l3
                          = nullptr,
                          std::shared_ptr<MemoryBus> shared_bus
                          = nullptr,
                          CpuSimulator *recycle = nullptr,
                          bool recycle_dirty = false);

    /**
     * Clones the cache-hierarchy state from @p other, a simulator
     * with the identical SystemConfig that has been prefilled (see
     * prefillData / suite::prefillSteadyState) but has consumed no
     * demand traffic yet. After the call this simulator observes the
     * exact state a matching prefill sequence would have built --
     * multi-point fan-out prefills one group leader per hierarchy
     * configuration and clones the rest.
     */
    void copyPrefillFrom(const CpuSimulator &other);

    /** Runs @p source to exhaustion and returns the counters. */
    SimResult run(trace::TraceSource &source);

    /**
     * Installs the lines of [base, base+bytes) into the hierarchy
     * down to @p level without counting demand traffic -- models the
     * steady-state residency a long-running application would have
     * built before the measured sample begins.
     */
    void prefillData(std::uint64_t base, std::uint64_t bytes,
                     HitLevel level);

    /**
     * Consumes at most @p max_ops micro-ops from @p source (used by
     * the multicore interleaver and phase analysis).
     *
     * Runs on the batched fast lane: ops are pulled through
     * TraceSource::nextLanes() in chunks of batchOps() and consumed
     * in tight per-component lane passes (see consumeBatch). Results
     * are byte-identical to stepUnbatched() at any batch size -- the
     * golden tests enforce it -- and internal batches never overrun
     * @p max_ops, so telemetry sampling intervals and watchdog op
     * budgets (which cap max_ops per call) observe identical op
     * counts.
     *
     * Clone-group fan-out (suite/fanout.hh) sets at most one of the
     * two lane-log arguments; both need the batched lane (panics
     * under setUnbatchedStepping):
     *  - @p record: every batch's memory-side outcomes are appended
     *    to it (see MemoryLaneLog); results are unchanged, recording
     *    costs one lane copy per batch.
     *  - @p import: the cache and TLB passes are skipped and the
     *    memory-side lanes and counters come from @p import, recorded
     *    by a leader with the identical hierarchy, TLB and core
     *    configuration over the identical micro-op stream and batch
     *    schedule. The branch, footprint and retire passes still run
     *    here, so per-point branch behavior and timing are exact.
     *    This simulator's cache hierarchy and TLBs are never touched
     *    (they may hold dirty-recycled garbage; see the constructor's
     *    recycle_dirty). Panics unless the call consumes the log
     *    exactly, batch for batch.
     *
     * @return number of micro-ops actually consumed.
     */
    std::uint64_t step(trace::TraceSource &source, std::uint64_t max_ops,
                       MemoryLaneLog *record = nullptr,
                       const MemoryLaneLog *import = nullptr);

    /**
     * Reference lane: pulls and consumes one op at a time through
     * TraceSource::next(). Semantically identical to step(); kept as
     * the executable specification the golden identity tests and
     * bench_hot_path diff the batched lane against.
     */
    std::uint64_t stepUnbatched(trace::TraceSource &source,
                                std::uint64_t max_ops);

    /** Default micro-ops per batch on the fast lane. */
    static constexpr std::size_t kDefaultBatchOps = 256;

    /** Sets the fast-lane batch size; purely an execution-strategy
     *  knob, results do not depend on it. A batch size of 0 is
     *  meaningless and is clamped to 1 with a warning (the contained
     *  degradation matching the knob's results-invariant nature). */
    void setBatchOps(std::size_t batch_ops);
    std::size_t batchOps() const { return batchOps_; }

    /** Routes step() through the per-op reference lane when true. */
    void setUnbatchedStepping(bool unbatched) { unbatched_ = unbatched; }

    /**
     * Binds this core to shared-L3 context @p ctx: every stepped
     * chunk and prefill re-selects it on the (context-tracked) shared
     * cache before touching it, so interleaved cores attribute their
     * L3 traffic correctly. The multicore simulator assigns core c
     * context c; single-core runs keep the default context 0, where
     * the re-selection is a no-op on the untracked private L3.
     */
    void setL3Context(unsigned ctx) { l3Context_ = ctx; }
    unsigned l3Context() const { return l3Context_; }

    /** Snapshot of counters accumulated so far (gauges refreshed). */
    counters::CounterSet snapshot() const;

    /**
     * Direct view of the accumulating counter bank (cycles and the
     * rss/vsz gauges are NOT materialized here -- use snapshot() for
     * a perf-complete view). Cheap enough to poll every interval;
     * this is what the telemetry registry reads.
     */
    const counters::CounterSet &rawCounters() const { return counters_; }

    /** Finalizes after stepping manually. */
    SimResult finish(const trace::TraceSource &source);

    const CoreModel &core() const { return core_; }
    const CacheHierarchy &hierarchy() const { return hierarchy_; }
    const BranchUnit &branchUnit() const { return branches_; }
    const FootprintTracker &footprint() const { return footprint_; }
    const Tlb &dtlb() const { return dtlb_; }
    const Tlb &itlb() const { return itlb_; }

  private:
    void consume(const isa::MicroOp &op);
    /** Batched equivalent of n consume() calls over lane slots
     *  [base, base+n) of @p lanes, restructured into per-component
     *  passes (see the implementation comment for the legality
     *  argument). @p lanes is whatever TraceSource::nextLanes()
     *  returned: the simulator's own batch_ or a source-owned buffer
     *  served zero-copy. When @p record is set, the post-TLB lanes
     *  and counter deltas are appended to it. When @p imported is set
     *  (clone-group siblings), it is the batch of @p import this call
     *  consumes: the cache and TLB passes are skipped and their lanes
     *  and counters are read from it instead. */
    void consumeBatch(const trace::MicroOpBatch &lanes,
                      std::size_t base, std::size_t n,
                      MemoryLaneLog *record, const MemoryLaneLog *import,
                      const MemoryLaneLog::Batch *imported);
    /** Forgets the per-set line memos after any non-batched cache
     *  mutation (reference lane, prefill); a cleared memo only costs
     *  one real access per set to re-establish. */
    void invalidateLineMemos();

    SystemConfig config_;
    CacheHierarchy hierarchy_;
    BranchUnit branches_;
    CoreModel core_;
    FootprintTracker footprint_;
    Tlb dtlb_;
    Tlb itlb_;
    counters::CounterSet counters_;

    /** Shared-L3 context this core's accesses belong to. */
    unsigned l3Context_ = 0;

    /** @name Batched fast lane state */
    /// @{
    std::size_t batchOps_ = kDefaultBatchOps;
    bool unbatched_ = false;
    /** True when no prefetcher is configured: the same-line data memo
     *  is illegal with one (prefetch fills can evict any L1D line and
     *  the prefetcher must observe every load). */
    bool dataMemoLegal_ = false;
    /** SoA lane buffer the fast lane pulls trace chunks into. */
    trace::MicroOpBatch batch_;
    /** @name Per-op scratch lanes staged between consumeBatch passes
     *  (indexed like batch_; resized once, reused every batch). The
     *  cache pass writes fetchStall_/memLatency_/l1Miss_/dram_ for
     *  every op, the TLB passes add to the first three, the branch
     *  pass sets mispredicted_, and the retire pass consumes all
     *  five. dram_ encodes DRAM-channel occupancy: 0 = none, 1 = one
     *  line transfer (load fill), 2 = two (store RFO + writeback). */
    /// @{
    std::vector<unsigned> fetchStall_;
    std::vector<unsigned> memLatency_;
    std::vector<std::uint8_t> l1Miss_;
    std::vector<std::uint8_t> mispredicted_;
    std::vector<std::uint8_t> dram_;
    /** Compact op-index lists the cache pass records as a by-product
     *  of its class dispatch (in op order): branch ops, and memory
     *  (load/store) ops. The branch, dTLB and footprint-data passes
     *  walk these instead of re-scanning all n ops with their own
     *  mispredict-prone class tests. */
    std::vector<std::uint32_t> branchIdx_;
    std::vector<std::uint32_t> memIdx_;
    /// @}
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
    /** Per-set memo of each L1's most-recently-used line (kNoLine =
     *  unknown): an access to the memo'd line is a guaranteed L1 hit
     *  whose replacement-state update is a no-op (re-touching a
     *  set's MRU way; see SetAssocCache::creditHits), so it is
     *  skipped and bulk-credited. */
    std::vector<std::uint64_t> instMemo_;
    std::vector<std::uint64_t> dataMemo_;
    /** Per-set flag: memo'd data line known dirty (last access was a
     *  write). A write may only be memo-skipped then, because
     *  writing a clean line must set its dirty bit. */
    std::vector<std::uint8_t> dataMemoDirty_;
    /** @name Direct-mapped already-touched-page filters
     *  A slot holding page p proves footprint_ already contains p
     *  (slots are set only after a touch), and the footprint page set
     *  only ever grows, so the batched footprint pass may skip the
     *  hash probe for filter hits -- touch() is idempotent. Never
     *  needs invalidation, even across reference-lane steps or
     *  prefills: entries can only go stale toward extra (harmless)
     *  touches, never toward wrongly skipped ones. kNoLine means
     *  empty (pages are addr / 4096, so all-ones never occurs). */
    /// @{
    static constexpr std::size_t kPcPageSeenSlots = 64;
    static constexpr std::size_t kDataPageSeenSlots = 4096;
    std::vector<std::uint64_t> pcPageSeen_;
    std::vector<std::uint64_t> dataPageSeen_;
    /// @}
    /// @}
};

} // namespace sim
} // namespace spec17

#endif // SPEC17_SIM_SIMULATOR_HH_
