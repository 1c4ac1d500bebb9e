// Fault-injection layer (src/support/fault.h) and crash/corruption
// recovery: spec parsing and occurrence semantics, document checksums,
// injected-crash death tests (the old checkpoint must survive a
// crash-before-rename; a short-write must salvage), byte-level truncation
// sweeps over real checkpoint and cache files (salvage-or-cold, never a
// crash, never a silently wrong pair), and the coordinator's fragment
// backfill.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
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

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Checkpoint;
using campaign::CheckpointLoadResult;
using campaign::CheckpointToJson;
using campaign::PairState;
using support::ChecksumStatus;

namespace fault = support::fault;

// Every test leaves the process-global fault schedule clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Disarm(); }
  void TearDown() override { fault::Disarm(); }
};

// ---- Spec parsing and occurrence semantics ----------------------------------

TEST_F(FaultTest, DisarmedLayerNeitherFiresNorCounts) {
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::Hit("some.point"));
  EXPECT_FALSE(fault::Hit("some.point"));
  EXPECT_EQ(fault::VisitCount("some.point"), 0u);
}

TEST_F(FaultTest, DefaultOccurrenceIsFirstVisitOnly) {
  fault::ArmFromSpec("p.q");
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_EQ(fault::VisitCount("p.q"), 3u);
  EXPECT_FALSE(fault::Hit("p.other"));
}

TEST_F(FaultTest, AtNFiresOnExactlyTheNthVisit) {
  fault::ArmFromSpec("p.q@3");
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_FALSE(fault::Hit("p.q"));
}

TEST_F(FaultTest, AtNPlusFiresFromTheNthVisitOn) {
  fault::ArmFromSpec("p.q@2+");
  EXPECT_FALSE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
  EXPECT_TRUE(fault::Hit("p.q"));
}

TEST_F(FaultTest, StarFiresAlwaysAndArgCarriesPayload) {
  fault::ArmFromSpec("p.q@*=250,p.r");
  fault::FireInfo info;
  EXPECT_TRUE(fault::Hit("p.q", &info));
  EXPECT_EQ(info.arg, 250);
  EXPECT_TRUE(fault::Hit("p.q", &info));
  EXPECT_TRUE(fault::Hit("p.r"));
}

TEST_F(FaultTest, MalformedSpecsThrowAndArmNothing) {
  EXPECT_THROW(fault::ArmFromSpec("p.q@"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@x"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q@0"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("p.q=notanumber"), InternalError);
  EXPECT_THROW(fault::ArmFromSpec("@2"), InternalError);
  EXPECT_FALSE(fault::Armed());
}

// ---- Document checksums -----------------------------------------------------

TEST_F(FaultTest, ChecksumRoundTrips) {
  const std::string doc =
      "{\n  \"format\": \"x\",\n  \"version\": 1,\n  \"body\": [1,2,3]\n}\n";
  const std::string stamped = support::AddDocumentChecksum(doc);
  EXPECT_NE(stamped, doc);
  EXPECT_NE(stamped.find("\"checksum\": \""), std::string::npos);
  EXPECT_EQ(support::VerifyDocumentChecksum(stamped), ChecksumStatus::kOk);
  // Legacy documents (no checksum field) stay accepted.
  EXPECT_EQ(support::VerifyDocumentChecksum(doc), ChecksumStatus::kAbsent);
}

TEST_F(FaultTest, ChecksumCatchesSingleBitFlips) {
  const std::string stamped = support::AddDocumentChecksum(
      "{\n  \"format\": \"x\",\n  \"version\": 1,\n  \"body\": [1,2,3]\n}\n");
  // The inserted line's punctuation is excised before re-hashing, so the
  // protected bytes are everything outside that line plus the 16 recorded
  // hex digits themselves (a flipped digit no longer matches the hash).
  const std::size_t field = stamped.find("\"checksum\": \"");
  ASSERT_NE(field, std::string::npos);
  const std::size_t line_start = stamped.rfind('\n', field) + 1;
  const std::size_t line_end = stamped.find('\n', field) + 1;
  const std::size_t hex = field + std::string("\"checksum\": \"").size();
  for (std::size_t i = 0; i < stamped.size(); ++i) {
    const bool in_line = i >= line_start && i < line_end;
    const bool in_hex = i >= hex && i < hex + 16;
    if (in_line && !in_hex) continue;
    std::string flipped = stamped;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(support::VerifyDocumentChecksum(flipped), ChecksumStatus::kOk)
        << "bit flip at byte " << i << " went undetected";
  }
}

// ---- Real campaign fixtures -------------------------------------------------

// Budget-free (deterministic) options coarse enough to finish the tiny
// matrix here in well under a second.
CampaignOptions FastCampaignOptions() {
  CampaignOptions o;
  o.verifier.split_threshold = 0.7;
  o.verifier.solver.max_nodes = 4'000;
  o.verifier.solver.delta = 1e-3;
  o.tune_lda_delta = false;
  return o;
}

// Runs a real two-pair campaign to completion with checkpoint (and
// optionally cache) persistence, returning the completed state.
CampaignResult RunTinyCampaign(const std::string& checkpoint_path,
                               const std::string& cache_path = "") {
  CampaignOptions options = FastCampaignOptions();
  options.checkpoint_path = checkpoint_path;
  options.cache_path = cache_path;
  Campaign campaign(options);
  campaign.Add(*functionals::FindFunctional("VWN_RPA"),
               *conditions::FindCondition("EC1"));
  campaign.Add(*functionals::FindFunctional("VWN_RPA"),
               *conditions::FindCondition("EC2"));
  return campaign.Run();
}

std::string ReadAll(const std::string& path) {
  std::string text;
  XCV_CHECK_MSG(support::ReadFileToString(path, &text),
                "cannot read " << path);
  return text;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  XCV_CHECK_MSG(os.good(), "cannot write " << path);
}

// One pair serialized alone — the byte-identity unit of the salvage sweep.
std::string PairJson(const Checkpoint& cp, const PairState& p) {
  return CheckpointToJson(cp.options, {p}, false);
}

// ---- Hardened writer/loader -------------------------------------------------

TEST_F(FaultTest, CheckpointFilesCarryAVerifiableChecksum) {
  const std::string path = testing::TempDir() + "fault_ck_checksum.json";
  RunTinyCampaign(path);
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kOk);
  // The strict loader accepts it, and the tolerant loader calls it clean.
  EXPECT_NO_THROW(campaign::LoadCheckpointFile(path));
  const CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_TRUE(r.clean);
  EXPECT_FALSE(r.salvaged);
  EXPECT_FALSE(r.cold);
}

TEST_F(FaultTest, LegacyCheckpointWithoutChecksumStillLoads) {
  const std::string path = testing::TempDir() + "fault_ck_legacy.json";
  const CampaignResult done = RunTinyCampaign(path);
  // Rewrite the document the way pre-checksum writers did: same JSON, no
  // checksum line.
  Checkpoint cp = campaign::LoadCheckpointFile(path);
  WriteAll(path, CheckpointToJson(cp.options, cp.pairs, cp.cancelled));
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kAbsent);
  const CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.checkpoint.pairs.size(), done.pairs.size());
}

TEST_F(FaultTest, ContentCorruptionColdStartsAndQuarantines) {
  const std::string path = testing::TempDir() + "fault_ck_bitflip.json";
  RunTinyCampaign(path);
  std::string bytes = ReadAll(path);
  // Flip one digit inside the document body: the file still parses, but
  // its bytes are no longer the ones that were hashed — exactly the
  // corruption a checksum exists to catch, and the one salvage must NOT
  // paper over (a flipped digit is a silently wrong report).
  const std::string field = "\"solver_calls\": ";
  const std::size_t at = bytes.find(field);
  ASSERT_NE(at, std::string::npos);
  char& digit = bytes[at + field.size()];
  digit = digit == '1' ? '2' : '1';
  WriteAll(path, bytes);

  const CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_TRUE(r.cold);
  EXPECT_EQ(r.items_recovered, 0u);
  EXPECT_EQ(r.quarantine_path, path + ".corrupt");
  EXPECT_EQ(ReadAll(r.quarantine_path), bytes);
  // The strict loader refuses it outright.
  EXPECT_THROW(campaign::LoadCheckpointFile(path), InternalError);
}

TEST_F(FaultTest, TruncationSweepSalvagesOrColdStartsNeverLies) {
  const std::string path = testing::TempDir() + "fault_ck_trunc.json";
  RunTinyCampaign(path);
  const std::string bytes = ReadAll(path);
  const Checkpoint original = campaign::LoadCheckpointFile(path);
  ASSERT_GE(original.pairs.size(), 2u);

  // Every pair's reference serialization, keyed by identity.
  std::vector<std::pair<std::string, std::string>> reference;
  for (const PairState& p : original.pairs)
    reference.emplace_back(p.functional + '\x1f' + p.condition,
                           PairJson(original, p));

  // Cut the file at a spread of byte offsets — a stride through the body
  // plus every single offset in the tail, where the interesting pair
  // boundaries live — and demand: never a throw, exactly one outcome flag,
  // and every salvaged pair byte-identical to the original.
  std::size_t salvage_hits = 0, cold_hits = 0;
  for (std::size_t cut = 0; cut <= bytes.size();
       cut += (cut + 211 > bytes.size() && cut < bytes.size()) ? 1 : 197) {
    WriteAll(path, bytes.substr(0, cut));
    CheckpointLoadResult r;
    ASSERT_NO_THROW(r = campaign::LoadCheckpointFileTolerant(path))
        << "tolerant load threw at cut " << cut;
    ASSERT_EQ((r.clean ? 1 : 0) + (r.salvaged ? 1 : 0) + (r.cold ? 1 : 0), 1)
        << "ambiguous outcome at cut " << cut;
    if (cut == bytes.size()) {
      EXPECT_TRUE(r.clean);
      continue;
    }
    EXPECT_FALSE(r.clean) << "truncated file reported clean at cut " << cut;
    if (r.salvaged) ++salvage_hits;
    if (r.cold) ++cold_hits;
    ASSERT_EQ(r.checkpoint.pairs.size(), r.items_recovered);
    for (const PairState& p : r.checkpoint.pairs) {
      const std::string key = p.functional + '\x1f' + p.condition;
      bool matched = false;
      for (const auto& [ref_key, ref_json] : reference) {
        if (ref_key != key) continue;
        matched = true;
        EXPECT_EQ(PairJson(original, p), ref_json)
            << "salvaged pair " << p.functional << " x " << p.condition
            << " differs from the original at cut " << cut;
      }
      EXPECT_TRUE(matched) << "salvage invented pair " << p.functional
                           << " x " << p.condition << " at cut " << cut;
    }
  }
  // The sweep must actually exercise both recovery paths.
  EXPECT_GT(salvage_hits, 0u);
  EXPECT_GT(cold_hits, 0u);
}

TEST_F(FaultTest, CacheTruncationSweepSalvagesOrColdStarts) {
  const std::string ck = testing::TempDir() + "fault_cache_ck.json";
  const std::string path = testing::TempDir() + "fault_cache_trunc.json";
  RunTinyCampaign(ck, path);
  const std::string bytes = ReadAll(path);

  cache::VerdictCache original;
  ASSERT_TRUE(original.Load(path));
  ASSERT_GT(original.size(), 0u);

  for (std::size_t cut = 0; cut <= bytes.size();
       cut += (cut + 211 > bytes.size() && cut < bytes.size()) ? 1 : 197) {
    WriteAll(path, bytes.substr(0, cut));
    cache::VerdictCache salvaged;
    cache::CacheLoadStats stats;
    bool warm = false;
    ASSERT_NO_THROW(warm = salvaged.Load(path, &stats))
        << "cache load threw at cut " << cut;
    ASSERT_EQ((stats.clean ? 1 : 0) + (stats.salvaged ? 1 : 0) +
                  (stats.cold ? 1 : 0),
              1)
        << "ambiguous outcome at cut " << cut;
    if (cut == bytes.size()) {
      EXPECT_TRUE(stats.clean);
      EXPECT_TRUE(warm);
      EXPECT_EQ(salvaged.size(), original.size());
      continue;
    }
    EXPECT_FALSE(stats.clean) << "truncated cache clean at cut " << cut;
    EXPECT_EQ(stats.items_recovered, salvaged.size());
    // Every salvaged entry must replay exactly the verdict the original
    // cache holds for that key — a salvage can shrink the cache, never
    // corrupt it.
    salvaged.ForEach([&](std::uint64_t scope, std::span<const Interval> box,
                         const cache::CachedVerdict& verdict) {
      cache::CachedVerdict ref;
      ASSERT_TRUE(original.Lookup(scope, box, &ref))
          << "salvage invented a cache entry at cut " << cut;
      EXPECT_EQ(static_cast<int>(verdict.kind), static_cast<int>(ref.kind));
      EXPECT_EQ(verdict.nodes, ref.nodes);
      EXPECT_EQ(verdict.model, ref.model);
    });
  }
}

TEST_F(FaultTest, CheckpointLoadEioIsAColdStartNotACrash) {
  const std::string path = testing::TempDir() + "fault_ck_eio.json";
  RunTinyCampaign(path);
  fault::ArmFromSpec("checkpoint.load.eio");
  const CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_TRUE(r.cold);
  // The fault fired on the first visit only; the next read succeeds.
  const CheckpointLoadResult again = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_TRUE(again.clean);
}

TEST_F(FaultTest, CacheLoadEioIsAColdStartNotACrash) {
  const std::string ck = testing::TempDir() + "fault_cache_eio_ck.json";
  const std::string path = testing::TempDir() + "fault_cache_eio.json";
  RunTinyCampaign(ck, path);
  fault::ArmFromSpec("cache.load.eio");
  cache::VerdictCache cache;
  cache::CacheLoadStats stats;
  EXPECT_FALSE(cache.Load(path, &stats));
  EXPECT_TRUE(stats.cold);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.Load(path, &stats));
  EXPECT_TRUE(stats.clean);
}

// ---- Injected-crash death tests ---------------------------------------------
//
// Threadsafe style: the death-test child re-executes this test from the
// start, so the statements before EXPECT_EXIT run again in the child and
// the on-disk state the parent inspects afterwards is the CHILD's. All
// assertions below are therefore structural (verdicts, counts, document
// validity) rather than comparisons against parent-process bytes, which
// differ in the timing fields.

using FaultDeathTest = FaultTest;

TEST_F(FaultDeathTest, CrashBeforeRenameLeavesTheOldCheckpointIntact) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_ck_rename.json";
  std::remove((path + ".tmp").c_str());
  RunTinyCampaign(path);

  // Attempt to overwrite the two-pair checkpoint with an empty one; the
  // injected crash hits after the temp file is written and fsynced but
  // before the rename.
  EXPECT_EXIT(
      {
        fault::ArmFromSpec("checkpoint.save.crash-before-rename");
        campaign::WriteCheckpointFile(path, FastCampaignOptions(), {}, false);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // The previous checkpoint survived in full: it strict-loads (checksum
  // intact) with both pairs done — not the empty document the crashed
  // write was carrying.
  EXPECT_EQ(support::VerifyDocumentChecksum(ReadAll(path)),
            ChecksumStatus::kOk);
  const Checkpoint survived = campaign::LoadCheckpointFile(path);
  ASSERT_EQ(survived.pairs.size(), 2u);
  for (const PairState& p : survived.pairs) EXPECT_TRUE(p.done);
  // The orphaned temp file proves the crash came after the write: it holds
  // the complete new (empty) document.
  const Checkpoint orphan =
      campaign::CheckpointFromJson(ReadAll(path + ".tmp"));
  EXPECT_TRUE(orphan.pairs.empty());
}

TEST_F(FaultDeathTest, ShortWriteTearsTheFileAndSalvageRecovers) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_ck_shortwrite.json";
  const CampaignResult done = RunTinyCampaign(path);
  const Checkpoint full = campaign::LoadCheckpointFile(path);

  EXPECT_EXIT(
      {
        fault::ArmFromSpec("checkpoint.save.short-write");
        campaign::WriteCheckpointFile(path, full.options, full.pairs,
                                      full.cancelled);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // Half the bytes made it to disk under the final name — the torn-write
  // simulation. The strict loader must refuse it; the tolerant loader must
  // recover without inventing anything: only pairs the campaign really
  // ran, with the deterministic verdicts the parent's own run produced.
  EXPECT_THROW(campaign::LoadCheckpointFile(path), InternalError);
  const CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(r.salvaged || r.cold);
  EXPECT_LE(r.checkpoint.pairs.size(), done.pairs.size());
  if (r.salvaged) EXPECT_EQ(r.quarantine_path, path + ".corrupt");
  for (const PairState& p : r.checkpoint.pairs) {
    bool found = false;
    for (const PairState& q : done.pairs) {
      if (q.functional == p.functional && q.condition == p.condition) {
        found = true;
        if (p.done) EXPECT_EQ(p.verdict, q.verdict);
      }
    }
    EXPECT_TRUE(found) << "salvage invented pair " << p.functional << " x "
                       << p.condition;
  }
}

TEST_F(FaultDeathTest, PairDoneCrashLeavesAResumableCheckpoint) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "fault_pair_crash.json";
  std::remove(path.c_str());

  EXPECT_EXIT(
      {
        fault::ArmFromSpec("campaign.pair-done.crash");
        RunTinyCampaign(path);
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // The process died right after the first pair completed — which is after
  // that pair's checkpoint write, so the file is a valid snapshot with
  // exactly one pair done.
  CheckpointLoadResult r = campaign::LoadCheckpointFileTolerant(path);
  ASSERT_TRUE(r.clean);
  std::size_t finished = 0;
  for (const PairState& p : r.checkpoint.pairs)
    if (p.done) ++finished;
  EXPECT_EQ(finished, 1u);

  // Resuming the survivor runs the campaign to completion.
  CampaignOptions options = r.checkpoint.options;
  options.checkpoint_path = path;
  Campaign campaign(options);
  for (PairState& p : r.checkpoint.pairs) campaign.Restore(std::move(p));
  const CampaignResult resumed = campaign.Run();
  EXPECT_FALSE(resumed.cancelled);
  ASSERT_EQ(resumed.pairs.size(), 2u);
  for (const PairState& p : resumed.pairs) EXPECT_TRUE(p.done);
}

// ---- Coordinator fragment backfill ------------------------------------------

TEST_F(FaultTest, BackfillRestoresFragmentsAShardLost) {
  Checkpoint dealt;
  dealt.options = FastCampaignOptions();
  for (const char* cond : {"EC1", "EC2", "EC4"}) {
    dealt.pairs.push_back(
        campaign::InitialPairState(*functionals::FindFunctional("VWN_RPA"),
                                   *conditions::FindCondition(cond)));
  }

  // The shard came back with the middle fragment gone (torn off the end of
  // a salvaged file, say) and the first one completed.
  Checkpoint loaded;
  loaded.options = dealt.options;
  loaded.pairs.push_back(dealt.pairs[0]);
  loaded.pairs[0].done = true;
  loaded.pairs.push_back(dealt.pairs[2]);

  const std::size_t restored = shard::BackfillMissingPairs(loaded, dealt);
  EXPECT_EQ(restored, 1u);
  ASSERT_EQ(loaded.pairs.size(), 3u);
  // Progress that survived is kept; the lost fragment comes back in its
  // dealt (unrun) state.
  EXPECT_TRUE(loaded.pairs[0].done);
  EXPECT_EQ(loaded.pairs[2].condition, "EC2");
  EXPECT_FALSE(loaded.pairs[2].done);
  // Nothing to do when nothing is missing.
  EXPECT_EQ(shard::BackfillMissingPairs(loaded, dealt), 0u);
}

// ---- Heartbeat-lease edge cases ---------------------------------------------
//
// The liveness read (shard::HeartbeatAgeSeconds) must degrade to "silent
// since launch" on every pathological beat — and a silent node is a
// *stall* (the supervisor kills it, re-deals, retries), never a crash.

TEST_F(FaultTest, FutureHeartbeatMtimeDoesNotReadFreshForever) {
  const std::string hb = testing::TempDir() + "fault_hb_future";
  WriteAll(hb, "");
  // A writer with a skewed clock stamps the beat an hour into the future.
  // `now - mtime` is hugely negative; naively that never exceeds any
  // lease, and the node reads alive forever.
  std::filesystem::last_write_time(
      hb, std::filesystem::file_time_type::clock::now() +
              std::chrono::hours(1));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  // The supervisor's stale-lease SIGKILL then classifies as a stall.
  EXPECT_EQ(support::retry::ClassifyFailure(false, /*stall_kill=*/true, true,
                                            SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
  std::filesystem::remove(hb);
}

TEST_F(FaultTest, SmallClockSkewStillReadsFresh) {
  const std::string hb = testing::TempDir() + "fault_hb_skew";
  WriteAll(hb, "");
  // Sub-second skew is ordinary clock jitter, not a pathology: the beat
  // clamps to age zero instead of falling back to time-since-launch.
  std::filesystem::last_write_time(
      hb, std::filesystem::file_time_type::clock::now() +
              std::chrono::milliseconds(300));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 0.0);
  std::filesystem::remove(hb);
}

TEST_F(FaultTest, HeartbeatUnlinkedMidRunFallsBackToTimeSinceLaunch) {
  const std::string hb = testing::TempDir() + "fault_hb_unlinked";
  support::TouchFile(hb);
  EXPECT_LT(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  // A janitor (or the work dir's cleanup) unlinks the beat mid-run: the
  // node must drift toward stale, not read as freshly launched forever.
  std::filesystem::remove(hb);
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  EXPECT_EQ(support::retry::ClassifyFailure(false, true, true, SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
}

TEST_F(FaultTest, TouchFileFailureMeansTheBeatNeverLands) {
  // An unwritable heartbeat path (here a regular file used as a directory
  // component, which fails with ENOTDIR even for root): TouchFile is
  // best-effort and silent, so the beat simply never lands and the lease
  // read falls back to time since launch — a stall, not a crash.
  const std::string blocker = testing::TempDir() + "fault_hb_blocker";
  WriteAll(blocker, "i am a file, not a directory");
  const std::string hb = blocker + "/hb";
  support::TouchFile(hb);
  EXPECT_FALSE(std::filesystem::exists(hb));
  EXPECT_EQ(shard::HeartbeatAgeSeconds(hb, 42.0), 42.0);
  EXPECT_EQ(support::retry::ClassifyFailure(false, true, true, SIGKILL, 0),
            support::retry::FailureKind::kHeartbeatStall);
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace xcv
