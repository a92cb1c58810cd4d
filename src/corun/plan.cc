#include "corun/plan.hh"

#include <sstream>

#include "util/logging.hh"

namespace spec17 {
namespace corun {

using workloads::WorkloadProfile;

std::string
maskSetLabel(const std::vector<std::uint32_t> &masks)
{
    std::ostringstream os;
    os << std::hex;
    for (std::size_t c = 0; c < masks.size(); ++c)
        os << (c == 0 ? "" : "+") << "0x" << masks[c];
    return os.str();
}

std::string
CorunGroup::name() const
{
    std::string label;
    for (std::size_t c = 0; c < members.size(); ++c) {
        SPEC17_ASSERT(members[c] != nullptr, "group member ", c,
                      " has no profile");
        label += (c == 0 ? "" : "+") + members[c]->name;
    }
    if (!masks.empty())
        label += "@" + maskSetLabel(masks);
    return label;
}

std::uint32_t
contiguousMask(unsigned low_way, unsigned num_ways)
{
    SPEC17_ASSERT(num_ways >= 1 && low_way + num_ways <= 32,
                  "contiguous mask [", low_way, ", ",
                  low_way + num_ways, ") out of range");
    const std::uint32_t width = num_ways >= 32
        ? ~std::uint32_t{0}
        : (std::uint32_t{1} << num_ways) - 1;
    return width << low_way;
}

std::string
validateMasks(const std::vector<std::uint32_t> &masks, unsigned l3_ways)
{
    SPEC17_ASSERT(l3_ways >= 1 && l3_ways <= 32,
                  "L3 associativity ", l3_ways, " out of range");
    const std::uint32_t full = l3_ways >= 32
        ? ~std::uint32_t{0}
        : (std::uint32_t{1} << l3_ways) - 1;
    for (std::size_t c = 0; c < masks.size(); ++c) {
        std::ostringstream os;
        if (masks[c] == 0) {
            os << "context " << c
               << " has an empty way mask (it could never allocate)";
            return os.str();
        }
        if ((masks[c] & ~full) != 0) {
            os << std::hex << "context " << c << " mask 0x" << masks[c]
               << " names ways beyond the " << std::dec << l3_ways
               << "-way L3 (legal bits: 0x" << std::hex << full << ")";
            return os.str();
        }
    }
    return "";
}

namespace {

/** Resolves a planned member, enforcing the single-thread contract. */
const WorkloadProfile &
memberProfile(const std::vector<WorkloadProfile> &suite,
              const std::string &name)
{
    const WorkloadProfile &profile = findProfile(suite, name);
    SPEC17_ASSERT(profile.numThreads == 1, profile.name,
                  " runs ", profile.numThreads,
                  " threads; co-run groups take single-threaded "
                  "(rate) applications only");
    return profile;
}

} // namespace

std::vector<CorunGroup>
planGroups(const std::vector<WorkloadProfile> &suite,
           const PlanOptions &options)
{
    SPEC17_ASSERT(options.groupSize == 2 || options.groupSize == 4,
                  "co-run groups are pairs or quartets, not ",
                  options.groupSize);
    SPEC17_ASSERT(!options.partitionSweep || options.groupSize == 2,
                  "the partition sweep is defined over pairs");
    SPEC17_ASSERT(options.apps.size() >= (options.includeSelf
                                          && options.groupSize == 2
                                              ? 1u
                                              : options.groupSize),
                  "not enough applications (", options.apps.size(),
                  ") for groups of ", options.groupSize);

    std::vector<const WorkloadProfile *> profiles;
    profiles.reserve(options.apps.size());
    for (const std::string &name : options.apps)
        profiles.push_back(&memberProfile(suite, name));

    std::vector<CorunGroup> groups;
    if (options.groupSize == 2) {
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            for (std::size_t j = options.includeSelf ? i : i + 1;
                 j < profiles.size(); ++j) {
                CorunGroup pair;
                pair.members = {profiles[i], profiles[j]};
                groups.push_back(pair);
                if (!options.partitionSweep)
                    continue;
                for (unsigned k = 1; k < options.l3Ways; ++k) {
                    CorunGroup split = pair;
                    split.masks = {
                        contiguousMask(0, k),
                        contiguousMask(k, options.l3Ways - k)};
                    groups.push_back(std::move(split));
                }
            }
        }
        return groups;
    }

    for (std::size_t i = 0; i < profiles.size(); ++i)
        for (std::size_t j = i + 1; j < profiles.size(); ++j)
            for (std::size_t k = j + 1; k < profiles.size(); ++k)
                for (std::size_t l = k + 1; l < profiles.size(); ++l) {
                    CorunGroup quartet;
                    quartet.members = {profiles[i], profiles[j],
                                       profiles[k], profiles[l]};
                    groups.push_back(std::move(quartet));
                }
    return groups;
}

} // namespace corun
} // namespace spec17
