#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/job_spec.h"
#include "cli/cli.h"
#include "support/check.h"

namespace xcv::cli {
namespace {

std::vector<std::string> ConditionIds(const std::string& spec) {
  std::vector<std::string> ids;
  for (const auto* c : api::ParseConditionList(spec))
    ids.push_back(c->short_id);
  return ids;
}

std::vector<std::string> FunctionalNames(const std::string& spec) {
  std::vector<std::string> names;
  for (const auto* f : api::ParseFunctionalList(spec))
    names.push_back(f->name);
  return names;
}

TEST(Cli, ParsesSingleConditions) {
  EXPECT_EQ(ConditionIds("EC1"), (std::vector<std::string>{"EC1"}));
  EXPECT_EQ(ConditionIds("ec3,EC1"),
            (std::vector<std::string>{"EC1", "EC3"}));  // paper row order
}

TEST(Cli, ParsesConditionRanges) {
  // Ranges follow Table I row order: EC1 EC2 EC3 EC6 EC7 EC4 EC5.
  EXPECT_EQ(ConditionIds("EC1..EC3"),
            (std::vector<std::string>{"EC1", "EC2", "EC3"}));
  EXPECT_EQ(ConditionIds("EC6-EC7"),
            (std::vector<std::string>{"EC6", "EC7"}));
  EXPECT_EQ(ConditionIds("EC1..EC7").size(), 7u);
  EXPECT_EQ(ConditionIds("all").size(), 7u);
}

TEST(Cli, RejectsBadConditionSpecs) {
  EXPECT_THROW(api::ParseConditionList("EC9"), InternalError);
  EXPECT_THROW(api::ParseConditionList(""), InternalError);
  EXPECT_THROW(api::ParseConditionList("EC7..EC1"), InternalError);
}

TEST(Cli, ParsesFunctionalNames) {
  EXPECT_EQ(FunctionalNames("pbe"), (std::vector<std::string>{"PBE"}));
  EXPECT_EQ(FunctionalNames("scan,pbe"),
            (std::vector<std::string>{"PBE", "SCAN"}));  // column order
  EXPECT_EQ(FunctionalNames("all").size(), 5u);
}

TEST(Cli, FamilySelectors) {
  // "lda" selects the LDA paper functional (VWN RPA) — the acceptance
  // spelling `--functionals=lda,pbe`.
  EXPECT_EQ(FunctionalNames("lda"), (std::vector<std::string>{"VWN_RPA"}));
  EXPECT_EQ(FunctionalNames("lda,pbe"),
            (std::vector<std::string>{"PBE", "VWN_RPA"}));
  const auto mgga = FunctionalNames("mgga");
  EXPECT_NE(std::find(mgga.begin(), mgga.end(), "SCAN"), mgga.end());
}

TEST(Cli, ExtensionFunctionalsAreOptIn) {
  const auto all = FunctionalNames("all");
  EXPECT_EQ(std::find(all.begin(), all.end(), "PBEsol"), all.end());
  EXPECT_EQ(FunctionalNames("pbesol"),
            (std::vector<std::string>{"PBEsol"}));
}

TEST(Cli, RejectsBadFunctionalSpecs) {
  EXPECT_THROW(api::ParseFunctionalList("b3lyp"), InternalError);
  EXPECT_THROW(api::ParseFunctionalList(""), InternalError);
}

TEST(Cli, UnknownFlagIsAUsageErrorWithASuggestion) {
  // The classic typo: the node budget flag is --solver-nodes. The error
  // must name the flag the user typed and point at the real one.
  api::JobSpec spec = api::DefaultJobSpec();
  try {
    api::ApplyFlags({{"max-nodes", "1000"}}, spec);
    FAIL() << "ApplyFlags accepted an unknown flag";
  } catch (const InternalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--max-nodes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--solver-nodes"), std::string::npos) << msg;
  }
}

TEST(Cli, UnknownFlagWithoutANearMissStillNamesTheFlag) {
  api::JobSpec spec = api::DefaultJobSpec();
  try {
    api::ApplyFlags({{"zzz-qqq", "1"}}, spec);
    FAIL() << "ApplyFlags accepted an unknown flag";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("--zzz-qqq"), std::string::npos);
  }
}

TEST(Cli, ExtraAllowedKeysPassTheStrictnessCheck) {
  // Command-consumed keys (resume's heartbeat, the global trace flag) are
  // declared by the caller and pass through untouched.
  api::JobSpec spec = api::DefaultJobSpec();
  EXPECT_NO_THROW(api::ApplyFlags({{"heartbeat", "/tmp/hb"}}, spec,
                                  {"heartbeat", "trace"}));
  EXPECT_THROW(api::ApplyFlags({{"heartbeat", "/tmp/hb"}}, spec),
               InternalError);
}

TEST(Cli, SplitArgsIsTheOneArgvDialect) {
  const char* argv[] = {"prog",       "verify",     "--threads=4",
                        "--quiet",    "--cache=a",  "--cache=b",
                        "x.json",     "--port",     "0",
                        "--tenant="};
  const int argc = static_cast<int>(std::size(argv));
  const api::ArgList args = api::SplitArgs(argc, argv);
  EXPECT_EQ(args.flags.at("threads"), "4");
  EXPECT_EQ(args.flags.at("quiet"), "true");
  EXPECT_EQ(args.flags.at("cache"), "b");  // the last repeat wins
  EXPECT_EQ(args.flags.at("tenant"), "");
  // `--port 0` is not a valued flag: the 0 stays an operand.
  EXPECT_EQ(args.flags.at("port"), "true");
  EXPECT_EQ(args.operands,
            (std::vector<std::string>{"verify", "x.json", "0"}));
  // A list key joins its repeats instead.
  EXPECT_EQ(api::SplitArgs(argc, argv, {"cache"}).flags.at("cache"), "a,b");
}

TEST(Cli, CheckedIntegerRejectsFractionsAndOverflow) {
  EXPECT_EQ(api::CheckedInteger(7.0, "f", 0, 10), 7);
  EXPECT_EQ(api::CheckedInteger(0.0, "f", 0, 10), 0);
  EXPECT_EQ(api::CheckedInteger(10.0, "f", 0, 10), 10);
  for (double bad : {2.7, -1.0, 11.0, 1e30, -1e30,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    try {
      api::CheckedInteger(bad, "the-field", 0, 10);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("the-field"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, IntegerFlagsGoThroughTheCheckedReader) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"threads", "2.7"},          {"threads", "1e30"},
      {"threads", "257"},          {"solver-nodes", "2.5"},
      {"solver-nodes", "1e30"},    {"wave-width", "8.5"},
      {"wave-width", "1e30"},      {"max-retries", "1.5"},
      {"preemptible", "1e30"},     {"quarantine-after", "2.2"},
      {"quarantine-after", "0"},   {"threads", "four"}};
  for (const auto& [key, value] : bad) {
    api::JobSpec spec = api::DefaultJobSpec();
    try {
      api::ApplyFlags({{key, value}}, spec);
      ADD_FAILURE() << "accepted --" << key << "=" << value;
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("--" + key), std::string::npos)
          << e.what();
    }
  }
  // Integral values pass, in any spelling strtod reads.
  api::JobSpec spec = api::DefaultJobSpec();
  api::ApplyFlags({{"threads", "4"}, {"solver-nodes", "1e5"}}, spec);
  EXPECT_EQ(spec.options.num_threads, 4);
  EXPECT_EQ(spec.options.verifier.num_threads, 4);
  EXPECT_EQ(spec.options.verifier.solver.max_nodes, 100'000u);
}

TEST(Cli, RejectUnknownFlagsSuggestsFromTheCallersKeys) {
  // The gate xcvd runs over its own flag set.
  try {
    api::RejectUnknownFlags({{"max-job", "2"}}, {"port", "max-jobs"});
    FAIL() << "accepted --max-job";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --max-jobs?"),
              std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(
      api::RejectUnknownFlags({{"port", "0"}}, {"port", "max-jobs"}));
}

TEST(Cli, CoordinateChaosHooksUseTheCheckedReaders) {
  // --kill-node=abc used to parse as "kill node 0 at 0 s". Every case here
  // fails while parsing flags, before any file or process is made.
  for (const char* hook :
       {"--kill-node=abc", "--kill-node=1.5@1", "--kill-node=1@soon",
        "--fault-node=x:checkpoint.save.short-write@2"}) {
    const char* argv[] = {"xcv", "coordinate", hook};
    EXPECT_EQ(Main(3, argv), 2) << hook;
  }
}

}  // namespace
}  // namespace xcv::cli
