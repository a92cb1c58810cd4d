#include "tools/cli.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "suite/journal.hh"

namespace spec17 {
namespace cli {
namespace {

CommandLine
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv(args);
    return parseCommandLine(static_cast<int>(argv.size()),
                            argv.data());
}

TEST(CliParse, SplitsPositionalsAndFlags)
{
    const CommandLine c =
        parse({"stat", "505.mcf_r", "--size=test", "--csv"});
    EXPECT_EQ(c.command, "stat");
    ASSERT_EQ(c.positional.size(), 2u);
    EXPECT_EQ(c.positional[1], "505.mcf_r");
    EXPECT_EQ(c.flag("size"), "test");
    EXPECT_TRUE(c.hasFlag("csv"));
    EXPECT_FALSE(c.hasFlag("size-missing"));
}

TEST(CliParse, FlagDefaultsAndNumbers)
{
    const CommandLine c = parse({"stat", "--sample=12345"});
    EXPECT_EQ(c.flag("nope", "fallback"), "fallback");
    EXPECT_EQ(c.flagUint("sample", 1), 12345u);
    EXPECT_EQ(c.flagUint("warmup", 777), 777u);
}

TEST(CliParseDeathTest, MalformedNumberIsFatal)
{
    // Only a whole cell of decimal digits is a number: no trailing
    // junk, no exponent, no sign.
    for (const char *flag : {"--sample=abc", "--sample=5000x",
                             "--sample=1e6", "--sample=-1"}) {
        const CommandLine c = parse({"stat", flag});
        EXPECT_EXIT(c.flagUint("sample", 1),
                    ::testing::ExitedWithCode(1), "wants a number")
            << flag;
    }
}

TEST(CliParse, EmptyArgvGivesEmptyCommand)
{
    const CommandLine c = parse({});
    EXPECT_TRUE(c.command.empty());
}

TEST(CliRun, NoCommandPrintsUsageAndFails)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({}), out, err), 2);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliRun, HelpFlagSucceeds)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"list", "--help"}), out, err), 0);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliRun, UnknownCommandFails)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"frobnicate"}), out, err), 2);
    EXPECT_NE(err.str().find("unknown command"), std::string::npos);
}

TEST(CliRun, ConfigPrintsTableOneMachine)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"config"}), out, err), 0);
    EXPECT_NE(out.str().find("30.000 MiB"), std::string::npos);
    EXPECT_NE(out.str().find("tournament"), std::string::npos);
}

TEST(CliRun, ConfigHonorsPredictorFlag)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"config", "--predictor=gshare"}), out,
                         err),
              0);
    EXPECT_NE(out.str().find("gshare"), std::string::npos);
}

TEST(CliRun, ListCountsThePaperPairs)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"list", "--size=ref"}), out, err), 0);
    EXPECT_NE(out.str().find("64 application-input pairs"),
              std::string::npos);
    EXPECT_NE(out.str().find("505.mcf_r"), std::string::npos);
    EXPECT_NE(out.str().find("errored-in-paper"), std::string::npos);

    std::ostringstream out06;
    EXPECT_EQ(runCommand(parse({"list", "--suite=cpu2006"}), out06,
                         err),
              0);
    EXPECT_NE(out06.str().find("29 application-input pairs"),
              std::string::npos);
}

TEST(CliRun, ListRejectsBadSuiteAndSize)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"list", "--suite=cpu95"}), out, err),
              2);
    EXPECT_NE(err.str().find("unknown --suite"), std::string::npos);
    std::ostringstream err2;
    EXPECT_EQ(runCommand(parse({"list", "--size=gigantic"}), out,
                         err2),
              2);
    EXPECT_NE(err2.str().find("unknown --size"), std::string::npos);
}

TEST(CliRun, StatRequiresKnownApplication)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat"}), out, err), 2);
    std::ostringstream err2;
    EXPECT_EQ(runCommand(parse({"stat", "999.none_r"}), out, err2), 2);
    EXPECT_NE(err2.str().find("no application"), std::string::npos);
    std::ostringstream err3;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r", "--input=5"}),
                         out, err3),
              2);
    EXPECT_NE(err3.str().find("has 1 ref inputs"), std::string::npos);
}

TEST(CliRun, StatEmitsCountersAndMetrics)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "548.exchange2_r",
                                "--sample=60000", "--warmup=20000"}),
                         out, err),
              0);
    EXPECT_NE(out.str().find("inst_retired.any"), std::string::npos);
    EXPECT_NE(out.str().find("IPC"), std::string::npos);
    EXPECT_NE(out.str().find("estimated native run"),
              std::string::npos);
}

TEST(CliRun, CharacterizeReportsPaperErroredPairsInFailureSummary)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2017",
                                "--size=test", "--sample=1000",
                                "--warmup=0", "--no-cache"}),
                         out, err),
              0);
    // The paper could not collect perlbench's test.pl or any
    // 627.cam4_s input; those pairs surface in the failure summary
    // (and only there -- they are excluded from the metrics table).
    EXPECT_NE(out.str().find("failure summary"), std::string::npos);
    EXPECT_NE(out.str().find("errored-in-paper"), std::string::npos);
    EXPECT_NE(out.str().find("627.cam4_s"), std::string::npos);
}

TEST(CliRun, UsageDocumentsFaultIsolationFlags)
{
    for (const char *flag : {"--retries", "--pair-deadline",
                             "--resume", "--retry-backoff-ms"})
        EXPECT_NE(usage().find(flag), std::string::npos) << flag;
}

TEST(CliRun, UsageDocumentsJobsFlag)
{
    EXPECT_NE(usage().find("--jobs"), std::string::npos);
    EXPECT_NE(usage().find("parallel execution"), std::string::npos);
}

TEST(CliRun, CharacterizeRunsOnWorkerPool)
{
    // The parallel sweep must produce the same table a sequential one
    // does -- compare full command output, not just the exit code.
    std::ostringstream seq_out, par_out, err;
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                "--size=test", "--sample=2000",
                                "--warmup=500", "--no-cache"}),
                         seq_out, err),
              0);
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                "--size=test", "--sample=2000",
                                "--warmup=500", "--no-cache",
                                "--jobs=4"}),
                         par_out, err),
              0);
    EXPECT_NE(seq_out.str().find("429.mcf"), std::string::npos);
    EXPECT_EQ(par_out.str(), seq_out.str());
}

TEST(CliRun, UsageIsGeneratedFromTheFlagTable)
{
    // Every flag the CLI accepts appears in --help, with its
    // placeholder and group header; the table is the single source
    // of truth, so help cannot drift from the accepted set.
    const std::string text = usage();
    for (const FlagSpec &spec : flagTable()) {
        EXPECT_NE(text.find("--" + std::string(spec.name)),
                  std::string::npos)
            << spec.name;
        EXPECT_NE(text.find(spec.group), std::string::npos)
            << spec.group;
        if (spec.placeholder[0] != '\0')
            EXPECT_NE(text.find(spec.placeholder), std::string::npos)
                << spec.placeholder;
    }
    for (const char *flag :
         {"--sample-interval-ops", "--telemetry-out",
          "--telemetry-format", "--progress"})
        EXPECT_NE(text.find(flag), std::string::npos) << flag;
}

TEST(CliRun, UnknownFlagIsRejected)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r", "--samle=1"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("unknown flag '--samle'"),
              std::string::npos);
    // --help still wins over an unknown flag.
    std::ostringstream out2, err2;
    EXPECT_EQ(runCommand(parse({"stat", "--bogus", "--help"}), out2,
                         err2),
              0);
    EXPECT_NE(out2.str().find("usage:"), std::string::npos);
}

TEST(CliRun, CorunRejectsSuiteRunnerOnlyFlags)
{
    // corun reads only --jobs and the system knobs of the runner
    // flags: lane and fault-isolation flags would be silent no-ops.
    for (const char *flag : {"--unbatched-stepping", "--batch-ops=7",
                             "--retries=3", "--pair-deadline=50000"}) {
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parse({"corun", "--size=test",
                                    "--apps=505.mcf_r", "--no-cache",
                                    "--sample=2000", "--warmup=500",
                                    flag}),
                             out, err),
                  2)
            << flag;
        EXPECT_NE(err.str().find("does not apply to corun"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(out.str(), "") << flag;
    }
}

TEST(CliRun, TelemetryFlagsApplyOnlyWhereSeriesAreWritten)
{
    // Only stat and characterize write interval series; corun and
    // explore would accept the flags and write nothing.
    const std::string dir =
        std::string(::testing::TempDir()) + "/cli_no_telemetry";
    const std::string out_flag = "--telemetry-out=" + dir;
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"corun", "--size=test",
                                "--apps=505.mcf_r", "--no-cache",
                                "--sample=2000", "--warmup=500",
                                out_flag.c_str()}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("--telemetry-out does not apply to corun"),
              std::string::npos)
        << err.str();

    std::ostringstream out2, err2;
    EXPECT_EQ(runCommand(parse({"explore", "--axis=way-predictor",
                                "--suite=cpu2006", "--size=test",
                                "--sample=2000", "--warmup=500",
                                "--no-cache", out_flag.c_str(),
                                "--sample-interval-ops=500"}),
                         out2, err2),
              2);
    EXPECT_NE(err2.str().find("does not apply to explore"),
              std::string::npos)
        << err2.str();
    std::ifstream probe(dir);
    EXPECT_FALSE(probe.good()) << dir << " was created";
}

TEST(CliRun, UsageListsTheVerbsOfEachFlagGroup)
{
    // The verb lists are flagTable() data, rendered into --help, and
    // the same data rejects a flag on any other verb.
    const std::string text = usage();
    EXPECT_NE(text.find("telemetry (stat, characterize):"),
              std::string::npos);
    EXPECT_NE(text.find("campaign flags (characterize, corun, explore):"),
              std::string::npos);
    for (const FlagSpec &spec : flagTable()) {
        if (spec.verbs[0] != '\0')
            EXPECT_NE(text.find(std::string(spec.group) + " ("
                                + spec.verbs + "):"),
                      std::string::npos)
                << spec.name;
    }
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"subset", "--resume", "--no-cache"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("--resume does not apply to subset"),
              std::string::npos)
        << err.str();
}

TEST(CliRun, SampleBelowTheRunnerFloorIsRejected)
{
    // A contained usage error (exit 2), not an assertion abort inside
    // the runner.
    for (const char *command : {"stat", "characterize", "corun"}) {
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parse({command, "505.mcf_r", "--no-cache",
                                    "--sample=999"}),
                             out, err),
                  2)
            << command;
        EXPECT_NE(err.str().find("--sample must be at least 1000"),
                  std::string::npos)
            << command;
    }
}

TEST(CliRun, BatchOpsZeroIsRejected)
{
    // An explicit zero batch size is a contained error (exit 2 plus
    // a message), not a panic and not a silent fallback.
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--batch-ops=0"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("--batch-ops must be positive"),
              std::string::npos);
}

TEST(CliRun, LaneFlagsAreResultInvariant)
{
    // --batch-ops and --unbatched-stepping are execution-strategy
    // knobs: any legal combination prints the identical stat report.
    const std::vector<const char *> laneFlags = {
        nullptr, "--batch-ops=7", "--batch-ops=1024",
        "--unbatched-stepping"};
    std::string reference;
    for (std::size_t i = 0; i < laneFlags.size(); ++i) {
        std::vector<const char *> argv = {"stat", "505.mcf_r",
                                          "--sample=20000",
                                          "--warmup=5000"};
        if (laneFlags[i] != nullptr)
            argv.push_back(laneFlags[i]);
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parseCommandLine(
                                 static_cast<int>(argv.size()),
                                 argv.data()),
                             out, err),
                  0);
        if (i == 0)
            reference = out.str();
        else
            EXPECT_EQ(out.str(), reference) << "variant " << i;
    }
}

TEST(CliRun, StatRejectsBadTelemetryFormat)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--sample-interval-ops=1000",
                                "--telemetry-out=/tmp/x",
                                "--telemetry-format=xml"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("telemetry-format"), std::string::npos);
}

TEST(CliRun, StatReportsIntervalTelemetry)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "548.exchange2_r",
                                "--sample=60000", "--warmup=20000",
                                "--sample-interval-ops=10000"}),
                         out, err),
              0);
    EXPECT_NE(out.str().find("telemetry: 6 interval(s)"),
              std::string::npos);
    EXPECT_NE(out.str().find("interval IPC CoV"), std::string::npos);
}

TEST(CliRun, SubsetValidatesSetFlag)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"subset", "--set=all"}), out, err), 2);
    EXPECT_NE(err.str().find("rate or speed"), std::string::npos);
}

TEST(CliRun, PhasesRequiresApplication)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"phases"}), out, err), 2);
    EXPECT_NE(err.str().find("needs an application"),
              std::string::npos);
}

TEST(CliRun, PhasesRunsOnRealProfile)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"phases", "519.lbm_r",
                                "--sample=100000",
                                "--warmup=20000"}),
                         out, err),
              0);
    EXPECT_NE(out.str().find("timeline:"), std::string::npos);
    EXPECT_NE(out.str().find("phase A"), std::string::npos);
}


TEST(CliRun, RecordAndReplayRoundTrip)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/cli_record.s17t";
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"record", "548.exchange2_r",
                                "--sample=50000",
                                ("--out=" + path).c_str()}),
                         out, err),
              0);
    EXPECT_NE(out.str().find("50,000"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(runCommand(parse({"replay", path.c_str()}), out2, err),
              0);
    EXPECT_NE(out2.str().find("IPC"), std::string::npos);
    std::remove(path.c_str());
}

TEST(CliRun, RecordRequiresKnownApplication)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"record"}), out, err), 2);
    std::ostringstream err2;
    EXPECT_EQ(runCommand(parse({"record", "123.bogus_r"}), out, err2),
              2);
    EXPECT_NE(err2.str().find("no application"), std::string::npos);
}


/** One synthetic v2 journal for merge/fsck CLI tests. */
std::string
writeSyntheticJournal(const std::string &path, unsigned k, unsigned n,
                      std::initializer_list<const char *> payloads)
{
    suite::JournalHeader header;
    header.configFingerprint = suite::hex16(suite::fnv1a("cli-test"));
    header.pairsDigest = suite::hex16(suite::fnv1a("cli-pairs"));
    header.shardIndex = k;
    header.shardCount = n;
    std::string content =
        header.serialize() + "\nname,value,record_hash\n";
    for (const char *payload : payloads)
        content += std::string(payload) + ","
            + suite::recordHash(header.configFingerprint, payload)
            + "\n";
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << content;
    return content;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

TEST(CliRun, CharacterizeRejectsMalformedShard)
{
    for (const char *bad : {"--shard=5/4", "--shard=0/2",
                            "--shard=banana", "--shard="}) {
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parse({"characterize", "--no-cache",
                                    bad}),
                             out, err),
                  2)
            << bad;
        EXPECT_NE(err.str().find("--shard wants K/N"),
                  std::string::npos)
            << bad;
    }
}

TEST(CliRun, MergeValidatesItsArguments)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"merge"}), out, err), 2);
    EXPECT_NE(err.str().find("needs shard journal files"),
              std::string::npos);

    std::ostringstream out2, err2;
    EXPECT_EQ(runCommand(parse({"merge", "some.csv"}), out2, err2), 2);
    EXPECT_NE(err2.str().find("--out"), std::string::npos);

    // A missing input is an integrity failure (exit 1), not usage.
    std::ostringstream out3, err3;
    EXPECT_EQ(runCommand(parse({"merge", "--out=/tmp/x.csv",
                                "/nonexistent/shard.csv"}),
                         out3, err3),
              1);
    EXPECT_NE(err3.str().find("cannot read"), std::string::npos);
}

TEST(CliRun, FsckReportsCleanAndCorruptJournals)
{
    const std::string dir = ::testing::TempDir();
    const std::string clean = dir + "/cli_fsck_clean.csv";
    const std::string corrupt = dir + "/cli_fsck_corrupt.csv";
    writeSyntheticJournal(clean, 1, 1, {"p01,42", "p02,43"});
    const std::string intact = writeSyntheticJournal(
        corrupt, 1, 1, {"p01,42", "p02,43"});
    {
        // Tear the last record.
        std::ofstream out(corrupt, std::ios::trunc | std::ios::binary);
        out << intact.substr(0, intact.size() - 6);
    }

    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"fsck", clean.c_str()}), out, err), 0);
    EXPECT_NE(out.str().find("2 intact record(s)"), std::string::npos);

    // Every corruption class exits nonzero.
    std::ostringstream out2, err2;
    EXPECT_EQ(runCommand(parse({"fsck", clean.c_str(),
                                corrupt.c_str()}),
                         out2, err2),
              1);
    EXPECT_NE(out2.str().find("CORRUPT at record 1"),
              std::string::npos);

    // --repair drops exactly the damaged suffix, then fsck is clean.
    std::ostringstream out3, err3;
    EXPECT_EQ(runCommand(parse({"fsck", "--repair",
                                corrupt.c_str()}),
                         out3, err3),
              0);
    EXPECT_NE(out3.str().find("repaired"), std::string::npos);
    std::ostringstream out4, err4;
    EXPECT_EQ(runCommand(parse({"fsck", corrupt.c_str()}), out4,
                         err4),
              0);
    EXPECT_NE(out4.str().find("1 intact record(s)"),
              std::string::npos);

    // Headerless garbage stays unrepairable (and nonzero).
    {
        std::ofstream out5(corrupt, std::ios::trunc);
        out5 << "garbage\n";
    }
    std::ostringstream out6, err6;
    EXPECT_EQ(runCommand(parse({"fsck", "--repair",
                                corrupt.c_str()}),
                         out6, err6),
              1);
    EXPECT_NE(out6.str().find("UNREPAIRABLE"), std::string::npos);

    std::ostringstream out7, err7;
    EXPECT_EQ(runCommand(parse({"fsck"}), out7, err7), 2);
    std::remove(clean.c_str());
    std::remove(corrupt.c_str());
}

TEST(CliRun, ShardedCharacterizeMergesByteIdenticalToUnsharded)
{
    const std::string base =
        std::string(::testing::TempDir()) + "/cli_shard_roundtrip";
    ::setenv("SPEC17_CACHE", base.c_str(), 1);
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                "--size=test", "--sample=2000",
                                "--warmup=500", "--jobs=8"}),
                         out, err),
              0);
    const std::string canonical = base + ".cpu2006.test.csv";

    for (const char *shard : {"--shard=2/2", "--shard=1/2"}) {
        std::ostringstream shard_out, shard_err;
        EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                    "--size=test", "--sample=2000",
                                    "--warmup=500", shard}),
                             shard_out, shard_err),
                  0)
            << shard;
    }
    const std::string shard1 = base + ".cpu2006.test.shard1of2.csv";
    const std::string shard2 = base + ".cpu2006.test.shard2of2.csv";
    const std::string merged = base + ".merged.csv";
    std::ostringstream merge_out, merge_err;
    EXPECT_EQ(runCommand(parse({"merge",
                                ("--out=" + merged).c_str(),
                                shard2.c_str(), shard1.c_str()}),
                         merge_out, merge_err),
              0)
        << merge_err.str();
    EXPECT_NE(merge_out.str().find("merged 2 shard(s)"),
              std::string::npos);
    EXPECT_FALSE(fileBytes(merged).empty());
    EXPECT_EQ(fileBytes(merged), fileBytes(canonical));

    ::unsetenv("SPEC17_CACHE");
    for (const std::string &file :
         {canonical, shard1, shard2, merged})
        std::remove(file.c_str());
}

TEST(CliRun, ResumeRefusesJournalFromAnotherConfig)
{
    const std::string base =
        std::string(::testing::TempDir()) + "/cli_resume_mismatch";
    ::setenv("SPEC17_CACHE", base.c_str(), 1);
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                "--size=test", "--sample=2000",
                                "--warmup=500"}),
                         out, err),
              0);
    // Same campaign journal, different config key: --resume must be
    // a clear refusal, not a silent replay of foreign results.
    std::ostringstream out2, err2;
    EXPECT_EQ(runCommand(parse({"characterize", "--suite=cpu2006",
                                "--size=test", "--sample=3000",
                                "--warmup=500", "--resume"}),
                         out2, err2),
              2);
    EXPECT_NE(err2.str().find("refusing to resume"),
              std::string::npos);
    ::unsetenv("SPEC17_CACHE");
    std::remove((base + ".cpu2006.test.csv").c_str());
}

TEST(CliRun, CorunHonoursTheUarchFlags)
{
    // The co-run machine comes from the same uarch flags as every
    // other verb, so a mechanism flag changes its config fingerprint.
    const std::string base =
        std::string(::testing::TempDir()) + "/cli_corun_uarch";
    const std::string journal = base + ".corun.test.csv";
    ::setenv("SPEC17_CACHE", base.c_str(), 1);
    std::vector<std::string> fingerprints;
    // --way-penalty=2 is the default: the first run is the baseline.
    for (const char *flag : {"--way-penalty=2", "--way-predictor=mru"}) {
        std::remove(journal.c_str());
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parse({"corun", "--size=test",
                                    "--apps=541.leela_r",
                                    "--sample=2000", "--warmup=500",
                                    flag}),
                             out, err),
                  0)
            << err.str();
        const auto scan = suite::scanJournal(journal);
        EXPECT_TRUE(scan.clean()) << flag;
        fingerprints.push_back(scan.header.configFingerprint);
    }
    EXPECT_NE(fingerprints[0], fingerprints[1]);
    ::unsetenv("SPEC17_CACHE");
    std::remove(journal.c_str());
}

TEST(CliRun, ExportWritersFailOnAShortWrite)
{
    // /dev/full opens fine and fails every write: an export that
    // cannot be fully written exits 1 instead of reporting "wrote".
    const std::vector<std::vector<const char *>> runs = {
        {"explore", "--axis=way-predictor", "--suite=cpu2006",
         "--size=test", "--sample=2000", "--warmup=500", "--no-cache",
         "--export-jsonl=/dev/full"},
        {"explore", "--axis=way-predictor", "--suite=cpu2006",
         "--size=test", "--sample=2000", "--warmup=500", "--no-cache",
         "--explore-out=/dev/full"},
        {"corun", "--size=test", "--apps=541.leela_r", "--sample=2000",
         "--warmup=500", "--no-cache", "--export-jsonl=/dev/full"},
    };
    for (const auto &args : runs) {
        SCOPED_TRACE(args.back());
        std::ostringstream out, err;
        EXPECT_EQ(runCommand(parseCommandLine(
                                 static_cast<int>(args.size()),
                                 args.data()),
                             out, err),
                  1);
        EXPECT_NE(err.str().find("error: cannot write /dev/full"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(out.str().find("wrote"), std::string::npos)
            << out.str();
    }
}

TEST(CliRun, UsageDocumentsShardingAndJournalTools)
{
    const std::string text = usage();
    for (const char *needle :
         {"--shard", "--allow-partial", "--repair", "merge --out",
          "fsck", "sharded campaigns"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(CliRun, UarchFlagContradictionsAreContainedErrors)
{
    // Contradictory mechanism configurations are usage errors (exit 2
    // plus a pointed message), caught before any simulator is built.
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--way-predictor=psychic"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("want none|mru|utag"), std::string::npos);

    std::ostringstream err2;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--predictor=tage",
                                "--tage-tables=0"}),
                         out, err2),
              2);
    EXPECT_NE(err2.str().find("at least one tagged history table"),
              std::string::npos);

    std::ostringstream err3;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--prefetcher=stream",
                                "--stream-degree=0"}),
                         out, err3),
              2);
    EXPECT_NE(err3.str().find("--stream-degree must be positive"),
              std::string::npos);

    std::ostringstream err4;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--prefetcher=stream",
                                "--stream-degree=8",
                                "--stream-distance=4"}),
                         out, err4),
              2);
    EXPECT_NE(err4.str().find("cannot overshoot"), std::string::npos);
}

TEST(CliRun, StatAcceptsTheUarchMechanismFlags)
{
    // The full mechanism stack -- TAGE, stream at both levels, utag
    // way prediction -- runs end to end from the CLI.
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--sample=20000", "--warmup=5000",
                                "--predictor=tage", "--tage-tables=3",
                                "--prefetcher=stream",
                                "--l2-prefetcher=stream",
                                "--stream-degree=2",
                                "--stream-distance=8",
                                "--way-predictor=utag",
                                "--way-penalty=4"}),
                         out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("IPC"), std::string::npos);
}

TEST(CliRun, ExploreValidatesItsAxis)
{
    // Missing and unknown axes both list the accepted names.
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"explore"}), out, err), 2);
    EXPECT_NE(err.str().find("--axis=AXIS"), std::string::npos);
    EXPECT_NE(err.str().find("way-predictor"), std::string::npos);

    std::ostringstream err2;
    EXPECT_EQ(runCommand(parse({"explore", "--axis=voltage"}), out,
                         err2),
              2);
    EXPECT_NE(err2.str().find("got 'voltage'"), std::string::npos);
    EXPECT_NE(err2.str().find("l2-prefetcher"), std::string::npos);
}

TEST(CliRun, ExploreMultiAxisContradictionsAreContainedErrors)
{
    std::ostringstream out;
    const auto expectUsageError =
        [&](std::initializer_list<const char *> argv,
            const char *needle) {
        std::ostringstream err;
        EXPECT_EQ(runCommand(parse(argv), out, err), 2);
        EXPECT_NE(err.str().find(needle), std::string::npos)
            << "wanted '" << needle << "' in: " << err.str();
    };

    // One sweep shape per run.
    expectUsageError({"explore", "--axis=predictor",
                      "--multi-axis=predictor,way-predictor"},
                     "contradictory");
    // Fewer than two axes is what --axis is for.
    expectUsageError({"explore", "--multi-axis=predictor"},
                     "two or more");
    // Repeating an axis would square its grid for nothing.
    expectUsageError({"explore", "--multi-axis=predictor,predictor"},
                     "repeats axis");
    // Unknown axes list the accepted names, geometry grids included.
    expectUsageError({"explore", "--multi-axis=predictor,voltage"},
                     "tage-geometry");
    // The mode flag is meaningless without a multi-axis sweep, and
    // only knows product/descent.
    expectUsageError({"explore", "--axis=predictor",
                      "--multi-axis-mode=descent"},
                     "without --multi-axis");
    expectUsageError({"explore",
                      "--multi-axis=predictor,way-predictor",
                      "--multi-axis-mode=random"},
                     "product|descent");
    // A geometry grid over a mechanism the base config disables would
    // score identical points: rejected before any simulation.
    expectUsageError({"explore",
                      "--multi-axis=tage-geometry,way-predictor"},
                     "select tage first");
    expectUsageError({"explore",
                      "--multi-axis=stream-geometry,way-predictor"},
                     "stream prefetcher");
}

TEST(CliRun, ArenaFlagContradictionsAreContainedErrors)
{
    // Spilling with capture/replay disabled has nothing to spill.
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"stat", "505.mcf_r",
                                "--trace-arena-mb=0",
                                "--arena-spill-dir=/tmp/spec17_spill"}),
                         out, err),
              2);
    EXPECT_NE(err.str().find("contradictory"), std::string::npos)
        << err.str();
    EXPECT_NE(err.str().find("nothing to spill"), std::string::npos);
}

TEST(CliRun, ExploreRunsAMultiAxisCrossProduct)
{
    const std::string csv_path =
        std::string(::testing::TempDir()) + "/cli_explore_cross.csv";
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"explore",
                                "--multi-axis=way-predictor,predictor",
                                "--suite=cpu2006", "--size=test",
                                "--sample=2000", "--warmup=500",
                                "--no-cache", "--jobs=4",
                                ("--explore-out=" + csv_path)
                                    .c_str()}),
                         out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("design-space sweep of axis "
                             "'way-predictor+predictor (cross)'"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("knee:"), std::string::npos);
    // Row-major product: combined labels appear in the table.
    for (const char *label : {"none,tage", "mru,bimodal",
                              "utag,tournament"})
        EXPECT_NE(out.str().find(label), std::string::npos) << label;
    std::remove(csv_path.c_str());
}

TEST(CliRun, ExploreRunsACoordinateDescent)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"explore",
                                "--multi-axis=way-predictor,"
                                "l2-prefetcher",
                                "--multi-axis-mode=descent",
                                "--suite=cpu2006", "--size=test",
                                "--sample=2000", "--warmup=500",
                                "--no-cache", "--jobs=4"}),
                         out, err),
              0)
        << err.str();
    // One folded pick per stage, in axis order.
    EXPECT_NE(out.str().find("descent step 1 (way-predictor):"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("descent step 2 (l2-prefetcher):"),
              std::string::npos);
}

TEST(CliRun, ExploreSweepsOneAxisAndMarksTheKnee)
{
    const std::string csv_path =
        std::string(::testing::TempDir()) + "/cli_explore.csv";
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"explore", "--axis=way-predictor",
                                "--suite=cpu2006", "--size=test",
                                "--sample=2000", "--warmup=500",
                                "--no-cache", "--jobs=4",
                                ("--explore-out=" + csv_path)
                                    .c_str()}),
                         out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find(
                  "design-space sweep of axis 'way-predictor'"),
              std::string::npos);
    EXPECT_NE(out.str().find("knee:"), std::string::npos);
    // Every axis point appears in the rendered table.
    for (const char *label : {"none", "mru", "utag"})
        EXPECT_NE(out.str().find(label), std::string::npos) << label;
    const std::string csv = fileBytes(csv_path);
    EXPECT_NE(csv.find("SSE (pp^2)"), std::string::npos);
    std::remove(csv_path.c_str());
}

TEST(CliRun, UsageDocumentsUarchAndExploreFlags)
{
    const std::string text = usage();
    for (const char *needle :
         {"--l2-prefetcher", "--way-predictor", "--way-penalty",
          "--stream-degree", "--stream-distance", "--tage-tables",
          "--axis", "--multi-axis", "--multi-axis-mode",
          "--trace-arena-mb", "--arena-spill-dir", "--explore-out",
          "uarch mechanisms", "design-space exploration",
          "trace capture/replay"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST(CliRun, ValidateReportsDeviations)
{
    std::ostringstream out, err;
    EXPECT_EQ(runCommand(parse({"validate", "--suite=cpu2006",
                                "--sample=60000", "--warmup=20000",
                                "--tolerance=100"}),
                         out, err),
              0);
    EXPECT_NE(out.str().find("deviate more than"), std::string::npos);
    EXPECT_NE(out.str().find("429.mcf"), std::string::npos);
}

} // namespace
} // namespace cli
} // namespace spec17
