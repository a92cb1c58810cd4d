/**
 * @file
 * Statistical micro-op trace generation.
 *
 * This is the framework's stand-in for executing licensed SPEC
 * binaries: a workload is described by its microarchitecture-
 * independent statistics (instruction mix, branch-site population,
 * memory-region working sets and access patterns) and the generator
 * emits a deterministic micro-op stream with those statistics. The
 * approach follows the statistical-simulation lineage the paper's own
 * methodology cites (Eeckhout et al., program-input pair selection).
 */

#ifndef SPEC17_TRACE_SYNTHETIC_HH_
#define SPEC17_TRACE_SYNTHETIC_HH_

#include <cstdint>
#include <vector>

#include "trace/source.hh"
#include "util/random.hh"

namespace spec17 {
namespace trace {

/** How a memory region is walked. */
enum class AccessPattern : std::uint8_t
{
    Sequential,   //!< unit-stride streaming (lbm-like)
    Strided,      //!< constant stride > one line (column walks)
    Random,       //!< independent uniform accesses (hash tables)
    PointerChase, //!< dependent random accesses (mcf-like lists)
};

/** Human-readable pattern name. */
const char *accessPatternName(AccessPattern pattern);

/**
 * One logically contiguous data region of the synthetic workload.
 * Its size against the cache capacities determines where its accesses
 * hit; its pattern determines the memory-level parallelism the core
 * model can extract.
 */
struct MemoryRegionParams
{
    AccessPattern pattern = AccessPattern::Sequential;
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint64_t strideBytes = 64;  //!< used by Strided
    double loadWeight = 1.0;   //!< share of loads landing here
    double storeWeight = 1.0;  //!< share of stores landing here
};

/** Full parameterization of a synthetic workload trace. */
struct SyntheticTraceParams
{
    /** Micro-ops to emit. */
    std::uint64_t numOps = 1'000'000;
    /** Root seed; every internal stream derives from it. */
    std::uint64_t seed = 1;

    /** @name Instruction mix (fractions of all micro-ops) */
    /// @{
    double loadFrac = 0.25;
    double storeFrac = 0.09;
    double branchFrac = 0.15;
    /// @}

    /** Fraction of the remaining compute ops that are FP. */
    double fpFrac = 0.0;
    /** Fraction of int/fp compute that is multiply. */
    double mulFrac = 0.05;
    /** Fraction of int/fp compute that is divide (unpipelined). */
    double divFrac = 0.005;

    /** @name Branch-kind mix (fractions of all branches; rest become
     *        conditional if they do not sum to 1) */
    /// @{
    double condFrac = 0.79;
    double directJumpFrac = 0.08;
    double nearCallFrac = 0.055;
    double indirectJumpFrac = 0.015;
    double nearReturnFrac = 0.06;
    /// @}

    /** Static conditional-branch sites in the synthetic program. */
    std::size_t numBranchSites = 1024;
    /**
     * Fraction of dynamic conditional branches coming from
     * data-dependent ~50/50 sites (the knob that positions an app's
     * mispredict rate: leela-like game trees are high, lbm-like
     * stencils are near zero).
     */
    double hardBranchFrac = 0.04;
    /**
     * Taken bias of the easy (predictable) branch sites. A site with
     * bias b has min(b, 1-b) intrinsic mispredicts under any
     * predictor, so this must stay near 1 for realistic floors.
     */
    double easyTakenBias = 0.98;
    /** Fraction of conditional branches whose input is a load. */
    double branchDepOnLoadFrac = 0.2;

    /**
     * Fraction of compute ops that depend on the immediately
     * preceding op -- the workload's serial-chain density, which
     * bounds achievable ILP (x264-like media code is low, latency-
     * chained FP solvers are high).
     */
    double computeDepFrac = 0.25;

    /** Distinct indirect-jump target count per indirect site. */
    std::size_t indirectTargets = 4;
    /**
     * Probability an indirect jump leaves its dominant target; the
     * BTB mispredicts roughly every switch, so this positions the
     * indirect contribution to the mispredict rate.
     */
    double indirectSwitchProb = 0.25;

    /** Instruction footprint (drives the I-cache). */
    std::uint64_t codeFootprintBytes = 192 * 1024;
    /** Fraction of taken-branch targets inside the hot (L1I-sized)
     *  prefix of the code. */
    double hotCodeFrac = 0.95;

    /** Static indirect-jump sites (scaled down for workloads whose
     *  dynamic indirect count could not warm a larger population). */
    std::size_t numIndirectSites = 64;

    /** Data regions; weights are normalized internally. */
    std::vector<MemoryRegionParams> regions;

    /** Address space reserved but never touched (VSZ - RSS slack). */
    std::uint64_t extraVirtualBytes = 8 * 1024 * 1024;

    /**
     * Constant added to every data-region base address. Zero means
     * all generators built from the same region list share data (the
     * OpenMP shared-heap case); per-thread offsets model private
     * heaps that multiply the combined working set.
     */
    std::uint64_t addressOffset = 0;

    /** Validates fractions and region weights; panics on nonsense. */
    void validate() const;
};

/**
 * Deterministic statistical trace generator. Two generators built
 * from equal params emit identical streams; reset() rewinds exactly.
 */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    explicit SyntheticTraceGenerator(SyntheticTraceParams params);

    bool next(isa::MicroOp &op) override;
    std::size_t nextBatchSoA(MicroOpBatch &out, std::size_t at,
                             std::size_t n) override;
    void reset() override;
    std::uint64_t virtualReserveBytes() const override;

    /** True while the borrowed cancel flag is raised (see
     *  setCancelFlag); the stream resumes when it clears. */
    bool
    cancelled() const override
    {
        return cancel_ != nullptr && *cancel_;
    }

    const SyntheticTraceParams &params() const { return params_; }

    /**
     * Cooperative cancellation: while @p flag points at a true value,
     * next() emits nothing and reports end-of-stream, letting a
     * watchdog stop runaway generation at the next micro-op boundary.
     * The flag is borrowed, not owned; pass nullptr to detach.
     */
    void setCancelFlag(const bool *flag) { cancel_ = flag; }

    /** Micro-ops emitted so far (telemetry counter). */
    std::uint64_t emittedOps() const { return emitted_; }

    /** Base virtual address of data region @p index (for tests). */
    std::uint64_t regionBase(std::size_t index) const;

    /** Base virtual address of the code segment. */
    std::uint64_t codeBase() const { return kCodeBase; }

  private:
    struct BranchSite
    {
        std::uint64_t pc = 0;
        double takenProb = 0.5;
        bool hard = false;
    };

    struct RegionState
    {
        std::uint64_t base = 0;
        std::uint64_t cursor = 0;
    };

    /** Per-op constants hoisted out of the emission loop. The class
     *  and branch-kind cuts are kept as BernoulliDraw::thresholdOf()
     *  integer images of the cumulative double cuts: the roll is
     *  drawn once as a raw 53-bit value and compared against them
     *  with exactly the nextDouble()-vs-double-cut outcomes. */
    struct EmitConsts
    {
        std::uint64_t hotSpan;
        std::uint64_t loadCut;    //!< roll < loadCut -> load
        std::uint64_t storeCut;   //!< roll < storeCut -> store
        std::uint64_t branchCut;  //!< roll < branchCut -> branch
        std::uint64_t condCut;    //!< branch-kind cuts, cumulative
        std::uint64_t directJumpCut;
        std::uint64_t nearCallCut;
        std::uint64_t indirectJumpCut;
        std::uint64_t nearReturnCut;
        std::uint64_t divCut;     //!< compute-unit cuts, cumulative
        std::uint64_t mulCut;
        std::size_t numHardSites;
    };

    void rebuildStaticStructure();
    EmitConsts emitConsts() const;
    /**
     * Emits exactly one op through @p w (the caller has checked
     * termination). There is a single emission body shared by the AoS
     * and SoA surfaces: the writer only chooses where the fields land
     * (a MicroOp struct or batch lanes), so the RNG draw order -- and
     * therefore the emitted stream -- cannot diverge between them.
     */
    template <typename Writer>
    void emitOpTo(Writer &&w, const EmitConsts &k);
    /** AoS form of emitOpTo (the next() surface). */
    void emitOp(isa::MicroOp &op, const EmitConsts &k);
    std::uint64_t pickAddress(std::size_t region_index, bool &dep_on_load);
    std::uint64_t pickBranchTarget();
    /** Rng::nextDiscrete with the weight sum precomputed (the weight
     *  vectors are fixed after configuration): consumes the same
     *  single nextDouble() draw and selects by the same sequential
     *  subtraction, so the emitted stream is unchanged. */
    std::size_t pickWeighted(const std::vector<double> &weights,
                             double total);

    SyntheticTraceParams params_;
    Rng rng_;
    const bool *cancel_ = nullptr;
    std::uint64_t emitted_ = 0;
    std::uint64_t pc_ = 0;

    std::vector<BranchSite> condSites_;
    std::vector<std::uint64_t> indirectSitePcs_;
    std::vector<std::vector<std::uint64_t>> indirectSiteTargets_;
    std::vector<RegionState> regionState_;
    /** @name Cached bounded draws (see BoundedDraw)
     *  Every nextBounded() bound in the emission path is fixed by
     *  params_ / the static structure, so the per-call division pair
     *  is hoisted to construction time. Draw-for-draw identical to
     *  the direct nextBounded() calls they replace. */
    /// @{
    std::vector<BoundedDraw> regionOffsetDraw_; //!< per region
    BoundedDraw hotTargetDraw_;
    BoundedDraw coldTargetDraw_;
    BoundedDraw hardSiteDraw_;
    BoundedDraw easySiteDraw_;
    BoundedDraw allSiteDraw_;
    BoundedDraw indirectSiteDraw_;
    std::vector<BoundedDraw> indirectPickDraw_; //!< per site fanout
    /// @}
    /** @name Cached Bernoulli draws (see BernoulliDraw)
     *  Same hoisting for every fixed-probability nextBernoulli() in
     *  the emission path, including one per conditional site for its
     *  taken bias. Draw-for-draw identical to the calls replaced. */
    /// @{
    BernoulliDraw hardBranchDraw_;
    BernoulliDraw branchDepDraw_;
    BernoulliDraw hotCodeDraw_;
    BernoulliDraw indirectSwitchDraw_;
    BernoulliDraw fpDraw_;
    BernoulliDraw computeDepDraw_;
    std::vector<BernoulliDraw> condSiteTakenDraw_; //!< per site
    /// @}
    std::vector<double> loadWeights_;
    std::vector<double> storeWeights_;
    double loadWeightTotal_ = 0.0;
    double storeWeightTotal_ = 0.0;

    static constexpr std::uint64_t kCodeBase = 0x400000;
    static constexpr std::uint64_t kDataBase = 0x10000000;
};

} // namespace trace
} // namespace spec17

#endif // SPEC17_TRACE_SYNTHETIC_HH_
