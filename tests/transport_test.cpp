// Preemption-tolerant node transport and retry policy
// (src/shard/transport.h, src/support/retry.h): failure classification,
// WDL-style retry budgets, deterministic backoff jitter, the persistent
// node-health ledger with quarantine/cooldown probes, the ssh launch/fetch
// script shapes, per-epoch log pruning, and the coordinator's
// retry/quarantine timeline — which must replay identically for a fixed
// fault spec.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "shard/coordinator.h"
#include "shard/transport.h"
#include "support/check.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/retry.h"

namespace xcv {
namespace {

namespace fault = support::fault;
namespace retry = support::retry;
using retry::FailureKind;
using retry::NodeLedger;
using retry::RetryBudget;
using retry::RuntimeAttrs;

// Every test leaves the process-global fault schedule clean.
class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disarm(); }
  void TearDown() override { fault::Disarm(); }

  // A fresh directory per call, under the test temp root.
  std::string MakeDir(const std::string& tag) {
    const std::string dir = testing::TempDir() + "transport_" + tag + "_" +
                            ::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }
};

// ---- Failure classification -------------------------------------------------

TEST_F(TransportTest, ClassifyFailureCoversEveryEnding) {
  // Launch/transport errors dominate everything else.
  EXPECT_EQ(retry::ClassifyFailure(true, false, false, 0, 0),
            FailureKind::kLaunchError);
  EXPECT_EQ(retry::ClassifyFailure(true, true, true, SIGKILL, 0),
            FailureKind::kLaunchError);
  // The supervisor's own stale-lease kill is a stall, not a preemption.
  EXPECT_EQ(retry::ClassifyFailure(false, true, true, SIGKILL, 0),
            FailureKind::kHeartbeatStall);
  // An outside SIGKILL is the spot-reclaim shape.
  EXPECT_EQ(retry::ClassifyFailure(false, false, true, SIGKILL, 0),
            FailureKind::kPreempted);
  EXPECT_EQ(retry::ClassifyFailure(false, false, true, SIGTERM, 0),
            FailureKind::kCleanNonzero);
  // Exit 70 is the fault layer's deterministic crash.
  EXPECT_EQ(retry::ClassifyFailure(false, false, false, 0, 70),
            FailureKind::kInjectedCrash);
  // Shell's cannot-exec codes are transport failures.
  EXPECT_EQ(retry::ClassifyFailure(false, false, false, 0, 127),
            FailureKind::kLaunchError);
  EXPECT_EQ(retry::ClassifyFailure(false, false, false, 0, 126),
            FailureKind::kLaunchError);
  EXPECT_EQ(retry::ClassifyFailure(false, false, false, 0, 1),
            FailureKind::kCleanNonzero);
}

// ---- Retry budgets ----------------------------------------------------------

TEST_F(TransportTest, PreemptionsConsumeTheirOwnBudgetFirst) {
  RuntimeAttrs attrs;
  attrs.max_retries = 1;
  attrs.preemptible_tries = 2;
  RetryBudget b;
  // Two preemptions ride the preemptible budget: nothing charged to
  // max_retries yet.
  b.Charge(FailureKind::kPreempted, attrs);
  b.Charge(FailureKind::kPreempted, attrs);
  EXPECT_EQ(b.preemptions, 2);
  EXPECT_EQ(b.failures, 0);
  EXPECT_FALSE(b.Exhausted(attrs));
  // The third preemption spills into the ordinary budget.
  b.Charge(FailureKind::kPreempted, attrs);
  EXPECT_EQ(b.failures, 1);
  EXPECT_FALSE(b.Exhausted(attrs));
  b.Charge(FailureKind::kInjectedCrash, attrs);
  EXPECT_EQ(b.failures, 2);
  EXPECT_TRUE(b.Exhausted(attrs));
}

TEST_F(TransportTest, OrdinaryFailuresNeverTouchThePreemptibleBudget) {
  RuntimeAttrs attrs;
  attrs.max_retries = 0;
  RetryBudget b;
  b.Charge(FailureKind::kHeartbeatStall, attrs);
  EXPECT_EQ(b.preemptions, 0);
  EXPECT_TRUE(b.Exhausted(attrs));
}

// ---- Deterministic backoff --------------------------------------------------

TEST_F(TransportTest, BackoffIsDeterministicBoundedAndJittered) {
  RuntimeAttrs attrs;
  attrs.backoff_initial_s = 0.5;
  attrs.backoff_max_s = 8.0;
  // Pure function of its inputs.
  EXPECT_EQ(retry::BackoffSeconds(attrs, "node-a", 1, 7),
            retry::BackoffSeconds(attrs, "node-a", 1, 7));
  // Exponential base with jitter in [base, 1.25*base].
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double base =
        std::min(attrs.backoff_max_s,
                 attrs.backoff_initial_s * static_cast<double>(1 << (attempt - 1)));
    const double d = retry::BackoffSeconds(attrs, "node-a", attempt, 7);
    EXPECT_GE(d, base) << "attempt " << attempt;
    EXPECT_LE(d, base * 1.25 + 1e-9) << "attempt " << attempt;
  }
  // The jitter decorrelates nodes retrying in lockstep.
  EXPECT_NE(retry::BackoffSeconds(attrs, "node-a", 1, 7),
            retry::BackoffSeconds(attrs, "node-b", 1, 7));
  EXPECT_NE(retry::BackoffSeconds(attrs, "node-a", 1, 7),
            retry::BackoffSeconds(attrs, "node-a", 1, 8));
}

// ---- Node-health ledger -----------------------------------------------------

TEST_F(TransportTest, ConsecutiveFailuresQuarantineAndSuccessClears) {
  RuntimeAttrs attrs;
  attrs.quarantine_after = 3;
  NodeLedger ledger;
  EXPECT_FALSE(ledger.RecordFailure("n", FailureKind::kPreempted, attrs));
  EXPECT_FALSE(ledger.RecordFailure("n", FailureKind::kPreempted, attrs));
  EXPECT_TRUE(ledger.Usable("n"));
  // A success resets the streak — the next failures start from zero.
  ledger.RecordSuccess("n");
  EXPECT_FALSE(ledger.RecordFailure("n", FailureKind::kInjectedCrash, attrs));
  EXPECT_FALSE(ledger.RecordFailure("n", FailureKind::kInjectedCrash, attrs));
  EXPECT_TRUE(
      ledger.RecordFailure("n", FailureKind::kInjectedCrash, attrs));
  EXPECT_TRUE(ledger.Quarantined("n"));
  EXPECT_FALSE(ledger.Usable("n"));
  EXPECT_EQ(ledger.Get("n").last_failure, "injected-crash");
}

TEST_F(TransportTest, CooldownEarnsOneProbeAndFailedProbeRequarantines) {
  RuntimeAttrs attrs;
  attrs.quarantine_after = 1;
  attrs.quarantine_cooldown_epochs = 2;
  NodeLedger ledger;
  EXPECT_TRUE(ledger.RecordFailure("n", FailureKind::kHeartbeatStall, attrs));
  EXPECT_FALSE(ledger.Usable("n"));
  ledger.TickEpoch();
  EXPECT_FALSE(ledger.Usable("n"));
  ledger.TickEpoch();
  // Cooldown over: the node earns a probe attempt while still quarantined.
  EXPECT_TRUE(ledger.Usable("n"));
  EXPECT_TRUE(ledger.Quarantined("n"));
  // The probe fails: back into quarantine for a full cooldown.
  EXPECT_FALSE(ledger.RecordFailure("n", FailureKind::kHeartbeatStall, attrs));
  EXPECT_FALSE(ledger.Usable("n"));
  ledger.TickEpoch();
  ledger.TickEpoch();
  EXPECT_TRUE(ledger.Usable("n"));
  // The probe succeeds: fully healthy again.
  ledger.RecordSuccess("n");
  EXPECT_FALSE(ledger.Quarantined("n"));
  EXPECT_TRUE(ledger.Usable("n"));
}

TEST_F(TransportTest, LedgerRoundTripsThroughDisk) {
  const std::string dir = MakeDir("ledger");
  const std::string path = dir + "/nodes.json";
  RuntimeAttrs attrs;
  {
    NodeLedger ledger;
    EXPECT_FALSE(ledger.Load(path));  // cold start: no file yet
    ledger.RecordLaunch("a");
    ledger.RecordSuccess("a");
    ledger.RecordLaunch("b");
    for (int i = 0; i < attrs.quarantine_after; ++i)
      ledger.RecordFailure("b", FailureKind::kPreempted, attrs);
    ledger.Save();
  }
  NodeLedger reloaded;
  EXPECT_TRUE(reloaded.Load(path));
  ASSERT_EQ(reloaded.nodes().size(), 2u);
  EXPECT_EQ(reloaded.Get("a").successes, 1u);
  EXPECT_TRUE(reloaded.Quarantined("b"));
  EXPECT_EQ(reloaded.Get("b").preemptions,
            static_cast<std::uint64_t>(attrs.quarantine_after));
  EXPECT_EQ(reloaded.Get("b").last_failure, "preempted");
  // The document is checksummed like every other durable xcv file.
  std::string text;
  ASSERT_TRUE(support::ReadFileToString(path, &text));
  EXPECT_EQ(support::VerifyDocumentChecksum(text),
            support::ChecksumStatus::kOk);
}

TEST_F(TransportTest, CorruptLedgerColdStartsAndQuarantinesTheBytes) {
  const std::string dir = MakeDir("ledger_corrupt");
  const std::string path = dir + "/nodes.json";
  {
    std::ofstream os(path);
    os << "{ this is not a ledger";
  }
  NodeLedger ledger;
  EXPECT_FALSE(ledger.Load(path));
  EXPECT_TRUE(ledger.nodes().empty());
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  // The cold ledger is usable and can be saved over the damage.
  ledger.RecordSuccess("a");
  ledger.Save();
  NodeLedger reloaded;
  EXPECT_TRUE(reloaded.Load(path));
  EXPECT_EQ(reloaded.Get("a").successes, 1u);

  // A torn ledger is not a cold start: the node records that still close
  // are salvaged, and the damaged bytes are kept.
  reloaded.RecordFailure("b", FailureKind::kPreempted, RuntimeAttrs{});
  reloaded.Save();
  std::string whole;
  ASSERT_TRUE(support::ReadFileToString(path, &whole));
  const std::size_t second = whole.find("\"node\": \"b\"");
  ASSERT_NE(second, std::string::npos);
  {
    std::ofstream os(path, std::ios::trunc);
    os << whole.substr(0, second);
  }
  std::filesystem::remove(path + ".corrupt");
  NodeLedger torn;
  EXPECT_TRUE(torn.Load(path));
  ASSERT_EQ(torn.nodes().size(), 1u);
  EXPECT_EQ(torn.nodes()[0].node, "a");
  EXPECT_EQ(torn.nodes()[0].successes, 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
}

// ---- ssh transport wire shape -----------------------------------------------

shard::LaunchSpec SshSpec() {
  shard::LaunchSpec spec;
  spec.slot = 1;
  spec.node = "host-b";
  spec.shard_path = "/work/shard-1.json";
  spec.heartbeat_path = "/work/hb-1";
  spec.log_path = "/work/node-1.epoch-0.log";
  spec.cache_path = "/caches/cache-node-1.json";
  spec.xcv_binary = "/usr/local/bin/xcv";
  return spec;
}

TEST_F(TransportTest, SshLaunchScriptShipsRunsStreamsAndPropagatesRc) {
  const std::string script =
      shard::BuildSshLaunchScript(SshSpec(), "/tmp/xcv-remote");
  // Ships the shard (and cache) to a per-slot remote dir, batch mode only.
  EXPECT_NE(script.find("scp -q -o BatchMode=yes '/work/shard-1.json' "
                        "'host-b':'/tmp/xcv-remote/node-1'/shard.json"),
            std::string::npos)
      << script;
  EXPECT_NE(script.find("'/caches/cache-node-1.json'"), std::string::npos);
  // Runs the remote resume with the streamed heartbeat and a clean fault
  // environment.
  EXPECT_NE(script.find("--heartbeat-stream"), std::string::npos);
  EXPECT_NE(script.find("env XCV_FAULTS="), std::string::npos);
  EXPECT_NE(script.find("/usr/local/bin/xcv"), std::string::npos);
  // Streamed XCV-HEARTBEAT lines become touches of the LOCAL heartbeat
  // file; everything else passes through to the log.
  EXPECT_NE(script.find("XCV-HEARTBEAT*) touch '/work/hb-1'"),
            std::string::npos)
      << script;
  // The remote exit code survives the filter pipeline.
  EXPECT_NE(script.find("echo $? > '/work/hb-1.rc'"), std::string::npos);
  EXPECT_NE(script.find("exit \"$rc\""), std::string::npos);
  // Transport setup failures exit 127 — classified as launch errors.
  EXPECT_NE(script.find("|| exit 127"), std::string::npos);
}

TEST_F(TransportTest, SshFetchScriptBringsTheShardBack) {
  const std::string script =
      shard::BuildSshFetchScript(SshSpec(), "/tmp/xcv-remote");
  EXPECT_NE(script.find("'host-b':'/tmp/xcv-remote/node-1'/shard.json "
                        "'/work/shard-1.json'"),
            std::string::npos)
      << script;
  // A shard that never materialized remotely is a fetch failure...
  EXPECT_NE(script.find("|| exit 1"), std::string::npos);
  // ...but a missing remote cache is not (caches are an optimization).
  EXPECT_NE(script.find("cache.json '/caches/cache-node-1.json' || true"),
            std::string::npos)
      << script;
}

// ---- Per-epoch log pruning --------------------------------------------------

TEST_F(TransportTest, PruneEpochLogsKeepsOnlyRecentEpochs) {
  const std::string dir = MakeDir("logs");
  for (int k = 0; k < 2; ++k)
    for (int e = 0; e <= 5; ++e) {
      std::ofstream(dir + "/node-" + std::to_string(k) + ".epoch-" +
                    std::to_string(e) + ".log")
          << "x";
    }
  std::ofstream(dir + "/node-0.log") << "legacy";
  std::ofstream(dir + "/shard-0.json") << "{}";
  // keep=3 at epoch 5 drops epochs 0..2 for both nodes.
  EXPECT_EQ(shard::PruneEpochLogs(dir, 5, 3), 6u);
  for (int e = 0; e <= 5; ++e)
    EXPECT_EQ(std::filesystem::exists(dir + "/node-0.epoch-" +
                                      std::to_string(e) + ".log"),
              e >= 3)
        << "epoch " << e;
  // Unrelated files are untouched.
  EXPECT_TRUE(std::filesystem::exists(dir + "/node-0.log"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/shard-0.json"));
  EXPECT_EQ(shard::PruneEpochLogs(dir, 5, 3), 0u);  // idempotent
}

// ---- Coordinator timeline ---------------------------------------------------

// An unrun one-pair campaign checkpoint for the coordinator to drive.
void WriteTinyCampaignCheckpoint(const std::string& path) {
  campaign::CampaignOptions options;
  options.verifier.split_threshold = 0.7;
  options.verifier.solver.max_nodes = 4'000;
  options.tune_lda_delta = false;
  std::vector<campaign::PairState> pairs = {
      campaign::InitialPairState(*functionals::FindFunctional("VWN_RPA"),
                                 *conditions::FindCondition("EC1")),
  };
  campaign::WriteCheckpointFile(path, options, pairs, false);
}

shard::CoordinatorOptions TimelineOptions(const std::string& dir) {
  shard::CoordinatorOptions copts;
  copts.checkpoint_path = dir + "/campaign.json";
  copts.work_dir = dir;
  copts.xcv_binary = "/bin/true";  // never actually launched below
  copts.shards = 1;
  copts.quiet = true;
  copts.poll_seconds = 0.001;
  copts.max_epochs = 2;
  copts.backoff_initial_seconds = 0.01;
  copts.backoff_max_seconds = 0.01;
  copts.attrs.max_retries = 2;
  copts.attrs.quarantine_after = 3;
  copts.attrs.backoff_initial_s = 0.001;
  copts.attrs.backoff_max_s = 0.002;
  copts.retry_seed = 42;
  return copts;
}

TEST_F(TransportTest, RetryQuarantineTimelineReplaysIdentically) {
  std::vector<std::vector<std::string>> runs;
  for (int run = 0; run < 2; ++run) {
    const std::string dir = MakeDir("timeline" + std::to_string(run));
    WriteTinyCampaignCheckpoint(dir + "/campaign.json");
    fault::Disarm();
    fault::ArmFromSpec("transport.launch.fail@*");
    const shard::CoordinatorResult result =
        shard::RunCoordinator(TimelineOptions(dir));
    fault::Disarm();
    EXPECT_FALSE(result.converged);
    EXPECT_FALSE(result.error.empty());
    // Epoch 0: three launch failures exhaust max_retries=2, the third also
    // quarantines (quarantine_after=3). Epoch 1: everything is
    // quarantined, so the fleet degrades to the least-bad node, which
    // fails its probe attempts the same way.
    ASSERT_EQ(result.quarantined, std::vector<std::string>{"local-0"});
    EXPECT_GE(result.launch_failures, 6);
    EXPECT_EQ(result.retries, 4);  // two retries per epoch before give-up
    runs.push_back(result.events);
  }
  // The chaos-replay contract: same fault spec, same timeline — including
  // every deterministic backoff value baked into the event lines.
  EXPECT_EQ(runs[0], runs[1]);
  ASSERT_GE(runs[0].size(), 4u);
  bool saw_quarantine = false, saw_degrade = false, saw_give_up = false;
  for (const std::string& e : runs[0]) {
    if (e.find("action=quarantine") != std::string::npos)
      saw_quarantine = true;
    if (e.find("degrading") != std::string::npos) saw_degrade = true;
    if (e.find("action=give-up") != std::string::npos) saw_give_up = true;
  }
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_degrade);
  EXPECT_TRUE(saw_give_up);
}

TEST_F(TransportTest, ExhaustedNodeIsQuarantinedAndItsShardRedealt) {
  const std::string dir = MakeDir("redeal");
  WriteTinyCampaignCheckpoint(dir + "/campaign.json");
  // A stand-in worker that exits cleanly without touching its shard: the
  // healthy node "works", the faulted node never launches.
  const std::string worker = dir + "/worker.sh";
  {
    std::ofstream os(worker);
    os << "#!/bin/sh\nexit 0\n";
  }
  std::filesystem::permissions(worker,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);

  shard::CoordinatorOptions copts = TimelineOptions(dir);
  copts.xcv_binary = worker;
  copts.shards = 2;
  copts.max_epochs = 2;
  copts.max_stalled_epochs = 2;
  copts.backoff_initial_seconds = 0.01;
  copts.backoff_max_seconds = 0.01;
  copts.attrs.max_retries = 1;
  copts.attrs.quarantine_after = 2;
  fault::ArmFromSpec("transport.launch.fail.local-1@*");
  const shard::CoordinatorResult result = shard::RunCoordinator(copts);

  // local-1 exhausted its budget and was quarantined; the campaign kept
  // going on local-0 alone (the stand-in worker makes no real progress, so
  // the run ends on the stall guard — that is the guard's job).
  EXPECT_EQ(result.quarantined, std::vector<std::string>{"local-1"});
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.epochs, 2);

  // The ledger survived to disk with the verdicts of both nodes.
  NodeLedger ledger;
  ASSERT_TRUE(ledger.Load(dir + "/nodes.json"));
  EXPECT_TRUE(ledger.Quarantined("local-1"));
  EXPECT_GE(ledger.Get("local-0").successes, 1u);
  EXPECT_EQ(ledger.Get("local-1").last_failure, "launch-error");

  // Per-epoch logs: the healthy node wrote one per epoch.
  EXPECT_TRUE(std::filesystem::exists(dir + "/node-0.epoch-0.log"));
}

}  // namespace
}  // namespace xcv
