/**
 * @file
 * Implementation of the `spec17` command-line tool's subcommands,
 * factored out of main() so they are unit-testable. Each command
 * writes its report to a stream and returns a process exit code.
 *
 * Subcommands:
 *   list          enumerate applications / application-input pairs
 *   stat          run one pair under the simulated perf monitor
 *   characterize  sweep a whole suite and tabulate Section-IV metrics
 *   corun         co-run interference sweep on the shared L3
 *   explore       one-axis uarch design-space sweep (Pareto table)
 *   subset        suggest a representative subset (paper Section V)
 *   phases        phase analysis of one pair (paper future work)
 *   config        print the simulated machine configuration
 *   merge         fuse shard journals into the canonical journal
 *   fsck          verify (and --repair) journal integrity offline
 */

#ifndef SPEC17_TOOLS_CLI_HH_
#define SPEC17_TOOLS_CLI_HH_

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace spec17 {
namespace cli {

/** Parsed command line: subcommand, positionals, --key=value flags. */
struct CommandLine
{
    std::string command;
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    /** Flag value or @p fallback. */
    std::string flag(const std::string &key,
                     const std::string &fallback = "") const;
    /** Numeric flag or @p fallback; malformed values are fatal. */
    std::uint64_t flagUint(const std::string &key,
                           std::uint64_t fallback) const;
    bool hasFlag(const std::string &key) const;
};

/**
 * Parses argv (beyond argv[0]). Flags are "--key=value" or bare
 * "--key"; everything else is positional, with the first positional
 * being the subcommand.
 */
CommandLine parseCommandLine(int argc, const char *const *argv);

/** Runs the parsed command; returns the process exit code. */
int runCommand(const CommandLine &command, std::ostream &out,
               std::ostream &err);

/** A usage section of flags and the verbs whose code reads them. */
struct FlagGroup
{
    const char *label;
    /** ", "-separated verbs; "" = every verb. */
    const char *verbs;
};

/**
 * One accepted `--flag` of the CLI. The table below is the single
 * source of truth: usage() renders it and runCommand() validates
 * parsed flags against it -- the name must be known and the verb
 * among its group's verbs -- so help text and the accepted flag set
 * cannot drift apart.
 */
struct FlagSpec
{
    FlagSpec(const char *name, const char *placeholder, const char *help,
             const FlagGroup &group)
        : name(name), placeholder(placeholder), help(help),
          group(group.label), verbs(group.verbs)
    {
    }

    const char *name;        //!< without the leading "--"
    const char *placeholder; //!< value placeholder, "" for booleans
    const char *help;        //!< one-line description
    const char *group;       //!< usage section this flag renders under
    const char *verbs;       //!< FlagGroup::verbs of that section
};

/** Every flag the CLI accepts, in usage() rendering order. */
const std::vector<FlagSpec> &flagTable();

/** Usage text (commands plus the rendered flag table). */
std::string usage();

} // namespace cli
} // namespace spec17

#endif // SPEC17_TOOLS_CLI_HH_
