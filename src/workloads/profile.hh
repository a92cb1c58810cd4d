/**
 * @file
 * Workload profiles: the microarchitecture-independent description of
 * one benchmark application, the framework's substitute for a
 * licensed SPEC binary + input.
 *
 * A profile records (a) identity (name, mini-suite, language), (b)
 * the application's instruction mix and branch structure, (c) its
 * memory behaviour as per-level cache pressure targets plus a
 * pointer-chase share and streaming flag, and (d) paper-scale
 * magnitudes (instruction count in billions, RSS/VSZ). The builder
 * (workloads/builder.hh) lowers a profile + input selection to
 * SyntheticTraceParams for the simulator.
 *
 * Numeric values are seeded from the paper's reported measurements
 * (Tables II, IV, V, IX; Figures 1-6) where the paper names the
 * application, and from the application's well-documented behaviour
 * otherwise (e.g. mcf = pointer chasing, lbm = streaming stencil).
 */

#ifndef SPEC17_WORKLOADS_PROFILE_HH_
#define SPEC17_WORKLOADS_PROFILE_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace spec17 {
namespace workloads {

/** The four CPU2017 mini-suites (and two CPU2006 halves). */
enum class SuiteKind : std::uint8_t
{
    RateInt,
    RateFp,
    SpeedInt,
    SpeedFp,
};

/** Human-readable mini-suite name ("rate int" etc.). */
std::string suiteKindName(SuiteKind kind);

/** True for the integer mini-suites. */
bool isIntSuite(SuiteKind kind);

/** True for the speed mini-suites. */
bool isSpeedSuite(SuiteKind kind);

/** SPEC input sizes. */
enum class InputSize : std::uint8_t
{
    Test,
    Train,
    Ref,
};

/** Human-readable input-size name ("test"/"train"/"ref"). */
std::string inputSizeName(InputSize size);

/** All three input sizes, in Test/Train/Ref order. */
inline constexpr InputSize kAllInputSizes[] = {
    InputSize::Test, InputSize::Train, InputSize::Ref};

/** Source benchmark generation. */
enum class SuiteGeneration : std::uint8_t
{
    Cpu2006,
    Cpu2017,
};

/**
 * Memory behaviour targets. The builder converts these into a
 * four-region working set (L1-resident, L2-resident, L3-resident,
 * DRAM) whose access weights reproduce the targets on the Table I
 * cache geometry; the actual rates are then *measured* from cache
 * simulation.
 */
struct MemoryBehavior
{
    /** Target L1D load miss rate (misses / loads). */
    double l1MissRate = 0.03;
    /** Target L2 miss rate (L2 misses / L1 misses). */
    double l2MissRate = 0.30;
    /** Target L3 miss rate (L3 misses / L2 misses). */
    double l3MissRate = 0.15;
    /**
     * Share of L3/DRAM-level accesses that are dependent pointer
     * chases (no memory-level parallelism). mcf-like codes are high;
     * streaming codes are zero.
     */
    double chaseFrac = 0.2;
    /**
     * Streaming workload: deep regions are walked sequentially
     * (prefetch-friendly, one miss per line) instead of randomly.
     */
    bool streaming = false;
};

/** Branch structure of the application. */
struct BranchBehavior
{
    /** Conditional share of all branches (paper average: 78.7%). */
    double condFrac = 0.787;
    double directJumpFrac = 0.08;
    double nearCallFrac = 0.055;
    double indirectJumpFrac = 0.018;
    double nearReturnFrac = 0.06;
    /**
     * Target overall branch mispredict rate (mispredicts / branches,
     * the paper's Fig. 6 quantity). The builder converts this into
     * the generator's hard-site fraction against the predictor's
     * easy-site floor.
     */
    double mispredictRate = 0.022;
    /** Fraction of conditionals fed directly by loads. */
    double depOnLoadFrac = 0.2;
    /** Static conditional sites (code size proxy for the predictor). */
    std::size_t numSites = 1024;
};

/** One application's full profile. */
struct WorkloadProfile
{
    /** Full SPEC name, e.g. "505.mcf_r". */
    std::string name;
    /** Numeric benchmark id (505 for 505.mcf_r). */
    int benchmarkId = 0;
    SuiteKind suite = SuiteKind::RateInt;
    SuiteGeneration generation = SuiteGeneration::Cpu2017;
    /** Source language, informational ("C", "C++", "Fortran", mixes). */
    std::string language = "C";

    /** Inputs available per input size (test, train, ref). */
    unsigned numInputs[3] = {1, 1, 1};

    /** @name Instruction mix (fractions of micro-ops) */
    /// @{
    double loadFrac = 0.25;
    double storeFrac = 0.09;
    double branchFrac = 0.15;
    /// @}
    /** FP share of compute micro-ops. */
    double fpFrac = 0.0;
    /** Serial-dependency density of compute ops (ILP limiter). */
    double computeDepFrac = 0.25;

    BranchBehavior branches;
    MemoryBehavior memory;

    /** Instruction footprint driving the I-cache. */
    std::uint64_t codeFootprintKiB = 192;

    /** @name Paper-scale magnitudes for the ref input */
    /// @{
    double refInstrBillions = 1000.0;
    double rssRefMiB = 1024.0;
    double vszRefMiB = 1280.0;
    /// @}
    /** Instruction-count scale of test/train inputs vs ref. */
    double testScale = 0.04;
    double trainScale = 0.13;

    /**
     * Threads the application runs with (1 for rate; 4 for the
     * OpenMP-capable speed applications, matching the paper's
     * configuration).
     */
    unsigned numThreads = 1;
    /**
     * Fraction of the data working set private to each thread (the
     * rest is shared). Only meaningful when numThreads > 1.
     */
    double threadPrivateFrac = 0.5;

    /**
     * Application-input pairs the paper could not collect perf data
     * for (627.cam4_s everywhere; perlbench's test.pl). Indices into
     * the input list per input size.
     */
    std::vector<std::pair<InputSize, unsigned>> erroredInputs;

    /** Instruction count (billions) for one input of @p size. */
    double instrBillions(InputSize size) const;

    /** RSS in MiB for one input of @p size (test/train inputs touch
     *  a fraction of the ref working set). */
    double rssMiB(InputSize size) const;

    /** VSZ in MiB for one input of @p size. */
    double vszMiB(InputSize size) const;

    /** True when the paper failed to collect the given pair. */
    bool isErrored(InputSize size, unsigned input_index) const;

    /**
     * Diagnoses the first malformed field (fraction outside [0, 1],
     * NaN, non-positive magnitude, mix leaving no room for compute),
     * or returns "" when the profile is well-formed. The suite runner
     * uses this to reject a bad profile as a contained per-pair
     * failure instead of producing NaN metrics.
     */
    std::string validationError() const;

    /** Validates all fractions and magnitudes; panics on nonsense. */
    void validate() const;
};

/**
 * One concrete run unit: an application plus a chosen input. The
 * characterization operates over these (the paper's 194 pairs).
 */
struct AppInputPair
{
    const WorkloadProfile *profile = nullptr;
    InputSize size = InputSize::Ref;
    unsigned inputIndex = 0;

    /** Display name, e.g. "502.gcc_r-in3" (plain name if 1 input). */
    std::string displayName() const;
};

/** The full CPU2017 suite: 43 applications across 4 mini-suites. */
const std::vector<WorkloadProfile> &cpu2017Suite();

/** The CPU2006 comparison suite (29 applications). */
const std::vector<WorkloadProfile> &cpu2006Suite();

/** cpu2017Suite() or cpu2006Suite(). */
const std::vector<WorkloadProfile> &suiteOf(SuiteGeneration generation);

/**
 * Enumerates application-input pairs of @p suite for @p size,
 * optionally filtered to one mini-suite. With the CPU2017 suite this
 * yields the paper's 69 (test) / 61 (train) / 64 (ref) pairs.
 */
std::vector<AppInputPair> enumeratePairs(
    const std::vector<WorkloadProfile> &suite, InputSize size);

/** Pairs restricted to one mini-suite. */
std::vector<AppInputPair> enumeratePairs(
    const std::vector<WorkloadProfile> &suite, InputSize size,
    SuiteKind kind);

/** Finds a profile by name; panics if absent. */
const WorkloadProfile &findProfile(
    const std::vector<WorkloadProfile> &suite, const std::string &name);

} // namespace workloads
} // namespace spec17

#endif // SPEC17_WORKLOADS_PROFILE_HH_
