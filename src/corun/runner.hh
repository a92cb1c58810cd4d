/**
 * @file
 * Co-run interference engine: executes planned groups (corun/plan.hh)
 * on the shared-L3 multicore simulator and attributes the damage.
 *
 * Every member of a group runs its own trace on its own context --
 * private L1/L2, shared L3, disjoint GiB-aligned address spaces (the
 * members model separate processes, not threads) -- interleaved in
 * fixed chunks so their L3 traffic contends. The engine also runs
 * each distinct application solo on an otherwise-idle machine with
 * the *same* trace, which turns per-context cycles into per-app
 * slowdowns: slowdown = co-run cycles / solo cycles.
 *
 * Determinism contract (the suite runner's, extended): every seed
 * derives from (root seed, identity), a member's trace is identical
 * solo and in every group it joins, and group sweeps are
 * byte-identical at any --jobs count because they run on the suite's
 * ordered worker pool. chunkOps shapes contention (when a context
 * yields, the others pollute the L3) and masks reshape victim
 * selection, so both are part of the config key -- unlike jobs,
 * which is observation-only.
 */

#ifndef SPEC17_CORUN_RUNNER_HH_
#define SPEC17_CORUN_RUNNER_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "corun/plan.hh"
#include "sim/system_config.hh"
#include "suite/memo.hh"
#include "workloads/profile.hh"

namespace spec17 {
namespace suite {
class TraceArenaStore;
} // namespace suite

namespace corun {

/** Co-run engine configuration. */
struct CorunOptions
{
    sim::SystemConfig system = sim::SystemConfig::haswellXeonE52650Lv3();
    /** Micro-ops measured per member (after its warmup). */
    std::uint64_t sampleOps = 300'000;
    /** Micro-ops each member executes before measurement. */
    std::uint64_t warmupOps = 100'000;
    /**
     * Context-interleave granularity in micro-ops. Unlike the suite's
     * batching knobs this is *semantics*: it decides how long each
     * context owns the L3 between yields, i.e. how finely the members
     * contend -- so it is part of the config key.
     */
    std::uint64_t chunkOps = 10'000;
    /** Root seed for traces and replacement randomness. */
    std::uint64_t seed = 0x5bec17;
    /** Input size the members run. */
    workloads::InputSize size = workloads::InputSize::Ref;
    /** Worker threads for group sweeps (1 = sequential, 0 = hardware
     *  concurrency). Byte-identical at any count; NOT in the key. */
    unsigned jobs = 1;

    /**
     * Optional trace arena store (borrowed; may be shared with other
     * engines). When set, each member's trace is captured once and
     * replayed from the arena everywhere it runs -- solo baseline and
     * every group -- instead of being regenerated per run. Replay is
     * draw-for-draw identical to live generation, so results are
     * byte-identical with or without a store: NOT part of the config
     * key.
     */
    suite::TraceArenaStore *arenaStore = nullptr;
};

/** One member's share of a co-run result. */
struct MemberResult
{
    std::string name; //!< profile name, e.g. "505.mcf_r"
    /** Measured-window cycles in the group. */
    double cycles = 0.0;
    /** Measured-window cycles of the solo baseline (same trace,
     *  idle machine). */
    double soloCycles = 0.0;
    /** Instructions retired over the member's measured window. */
    std::uint64_t instructions = 0;

    /** @name Shared-L3 attribution (whole run, this context) */
    /// @{
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;
    /** Other contexts' lines this member evicted. */
    std::uint64_t evictionsInflicted = 0;
    /** This member's lines evicted by others. */
    std::uint64_t evictionsSuffered = 0;
    /** L3 lines the member owned at the end of the run. */
    std::uint64_t occupancyLines = 0;
    /// @}

    /** Co-run cycles / solo cycles (>= ~1; 0 when solo is empty). */
    double slowdown() const
    {
        return soloCycles > 0.0 ? cycles / soloCycles : 0.0;
    }

    /** Instructions / cycles over the measured window. */
    double ipc() const
    {
        return cycles > 0.0 ? double(instructions) / cycles : 0.0;
    }
};

/** One group's full result. */
struct CorunResult
{
    std::string name; //!< CorunGroup::name() (the journal key)
    /** The group's partition masks (empty = free-for-all). */
    std::vector<std::uint32_t> masks;
    /** One entry per context, in context order. */
    std::vector<MemberResult> members;
    /** Replayed from the journal, not simulated this session. */
    bool replayed = false;

    /**
     * Weighted speedup (system throughput): sum over members of
     * solo/co-run cycles. N non-interfering members score N; heavy
     * contention drags it toward 1.
     */
    double throughput() const;

    /** Largest member slowdown (the fairness/victim metric). */
    double worstSlowdown() const;
};

/**
 * Runs co-run groups deterministically. Solo baselines are computed
 * once per distinct application (thread-safe, results independent of
 * discovery order) and shared across groups.
 */
class CorunRunner
{
  public:
    /** Sweep observer: (result, canonical index, sweep size),
     *  delivered in canonical order, never concurrently. */
    using GroupObserver = std::function<void(
        const CorunResult &, std::size_t index, std::size_t total)>;

    explicit CorunRunner(CorunOptions options = {});

    /** Solo measured-window cycles of @p profile (memoized). */
    double soloCycles(const workloads::WorkloadProfile &profile) const;

    /** Runs one group (plus any missing solo baselines). */
    CorunResult runGroup(const CorunGroup &group) const;

    /**
     * Runs @p groups on the ordered worker pool (CorunOptions::jobs):
     * results in canonical order, byte-identical at any job count.
     * Journaled, observed sweeps go through CorunStore::runOrLoad.
     */
    std::vector<CorunResult> runGroups(
        const std::vector<CorunGroup> &groups) const;

    const CorunOptions &options() const { return options_; }

    /** Stable fingerprint of everything that affects results --
     *  system, sample/warmup ops, chunkOps, seed, size. Group
     *  identity (members + masks) lives in each record's name, and
     *  the campaign's group enumeration in the journal digest. */
    std::string configKey() const;

  private:
    CorunOptions options_;
    /** Solo-cycle memo (group sweeps run on a worker pool). Values
     *  are deterministic, so SharedMemo's first-write-wins publish
     *  makes a concurrent duplicate computation benign. */
    mutable suite::SharedMemo<std::string, double> solo_;
};

} // namespace corun
} // namespace spec17

#endif // SPEC17_CORUN_RUNNER_HH_
