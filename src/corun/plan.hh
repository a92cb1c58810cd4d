/**
 * @file
 * Co-run campaign planning: which groups of applications share the
 * machine, and under which CAT-style L3 way partitions.
 *
 * A co-run group is N single-threaded applications pinned to N
 * contexts of one MulticoreSimulator, contending for the shared L3
 * the way consolidated SPEC rate copies would. The planner
 * enumerates pairs (optionally including self-pairs, the classic
 * rate-2 configuration) or quartets over a chosen application subset,
 * and can expand each pair into a contiguous way-partition sweep --
 * every `k | ways-k` split of the L3, the shape an Intel `schemata`
 * CBM line expresses -- for the Pareto analysis of throughput versus
 * worst-case slowdown.
 *
 * Enumeration order is canonical and deterministic: it is the record
 * order of the co-run journal and the unit of round-robin sharding,
 * exactly like the suite's pair enumeration.
 */

#ifndef SPEC17_CORUN_PLAN_HH_
#define SPEC17_CORUN_PLAN_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/profile.hh"

namespace spec17 {
namespace corun {

/**
 * One scheduled co-run: the member applications (one per simulated
 * context, in context order) and an optional L3 way partition.
 */
struct CorunGroup
{
    /** One profile per context; borrowed from the suite vector. */
    std::vector<const workloads::WorkloadProfile *> members;
    /** CAT allocation bitmask per context (bit w = way w), or empty
     *  for free-for-all (no partition). Masks change victim selection
     *  -- they are result semantics, not observation. */
    std::vector<std::uint32_t> masks;

    /**
     * Canonical identity, e.g. "505.mcf_r+519.lbm_r" or, partitioned,
     * "505.mcf_r+519.lbm_r@0xf+0xffff0". Doubles as the journal
     * record key, so it encodes everything that distinguishes two
     * groups of one campaign.
     */
    std::string name() const;
};

/** "+"-joined lowercase hex masks ("0xf+0xffff0"), "" when empty. */
std::string maskSetLabel(const std::vector<std::uint32_t> &masks);

/** Contiguous allocation mask covering ways [low_way, low_way+n). */
std::uint32_t contiguousMask(unsigned low_way, unsigned num_ways);

/**
 * Validates a CAT mask set against an @p l3_ways -way cache: every
 * context needs a non-empty mask, and no mask may name ways beyond
 * the associativity. Returns "" when legal, else a diagnosis -- the
 * contained-error seam the CLI uses to reject bad --partition input
 * without tripping the simulator's assertions.
 */
std::string validateMasks(const std::vector<std::uint32_t> &masks,
                          unsigned l3_ways);

/** Co-run campaign shape. */
struct PlanOptions
{
    /** Application names (profiles resolved from the suite); order
     *  defines enumeration order. */
    std::vector<std::string> apps;
    /** Contexts per group: 2 (pairs) or 4 (quartets). */
    unsigned groupSize = 2;
    /** Include self-pairs (two copies of one application). Pairs
     *  only; quartets are strict combinations. */
    bool includeSelf = true;
    /**
     * Expand every pair into the contiguous partition sweep: the
     * unpartitioned run plus every `k | ways-k` split, k in
     * [1, ways-1]. Pairs only.
     */
    bool partitionSweep = false;
    /** L3 associativity the partition sweep splits. */
    unsigned l3Ways = 20;
};

/**
 * Enumerates the campaign's groups in canonical order: pairs as
 * (i, j) with i <= j (i < j without self-pairs) over the app order,
 * quartets as strict combinations i < j < k < l; with a partition
 * sweep, each pair is immediately followed by its splits in
 * ascending-k order. Every member must be a single-threaded profile
 * (co-running OpenMP speed applications would need more contexts
 * than the group declares); violations panic with the profile name.
 */
std::vector<CorunGroup> planGroups(
    const std::vector<workloads::WorkloadProfile> &suite,
    const PlanOptions &options);

} // namespace corun
} // namespace spec17

#endif // SPEC17_CORUN_PLAN_HH_
