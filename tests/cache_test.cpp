// Persistent verdict cache: round-trip exactness, warm-replay equality with
// cache-less runs, options-hash (in)sensitivity, revalidation rejection of
// poisoned entries, and corrupt-file degradation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "expr/optimize.h"
#include "functionals/functional.h"
#include "solver/icp.h"
#include "support/io.h"
#include "verifier/verifier.h"

namespace xcv::cache {
namespace {

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::PairState;
using conditions::ConditionInfo;
using functionals::Functional;
using solver::Box;

// Budget-free, hence fully deterministic, options coarse enough for a small
// matrix to finish in well under a second (mirrors campaign_test).
verifier::VerifierOptions FastOptions() {
  verifier::VerifierOptions o;
  o.split_threshold = 0.7;
  o.solver.max_nodes = 4'000;
  o.solver.delta = 1e-3;
  return o;
}

CampaignOptions FastCampaignOptions() {
  CampaignOptions o;
  o.verifier = FastOptions();
  o.num_threads = 1;
  o.tune_lda_delta = false;
  return o;
}

std::vector<const Functional*> LdaPbeMatrix() {
  return {functionals::FindFunctional("VWN_RPA"),
          functionals::FindFunctional("PBE")};
}

std::vector<const ConditionInfo*> TestConditions() {
  return {conditions::FindCondition("EC1"), conditions::FindCondition("EC2")};
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

CampaignResult RunMatrixCampaign(CampaignOptions options) {
  Campaign c(std::move(options));
  for (const ConditionInfo* cond : TestConditions())
    for (const Functional* f : LdaPbeMatrix()) c.Add(*f, *cond);
  return c.Run();
}

// The deterministic face of a result: everything except timing and cache
// counters. Byte-equality of this string is the "cache never changes
// verdicts" acceptance bar.
std::string DeterministicFace(CampaignResult result) {
  for (PairState& p : result.pairs) {
    p.seconds = 0.0;
    p.report.seconds = 0.0;
    p.report.solver_calls = 0;
    p.report.solver_timeouts = 0;
    p.report.cache_hits = 0;
    p.report.cache_misses = 0;
    p.report.cache_rejected = 0;
  }
  return CheckpointToJson(FastCampaignOptions(), result.pairs, false);
}

TEST(VerdictCache, StoreLookupExactBoxMatch) {
  VerdictCache cache;
  const std::vector<Interval> box{Interval(0.5, 2.0), Interval(-0.0, 1.0)};
  CachedVerdict v;
  v.kind = CachedKind::kUnsat;
  v.nodes = 41;
  cache.Store(123, box, v);

  CachedVerdict out;
  EXPECT_TRUE(cache.Lookup(123, box, &out));
  EXPECT_EQ(out.kind, CachedKind::kUnsat);
  EXPECT_EQ(out.nodes, 41u);
  // Different scope, same box: miss.
  EXPECT_FALSE(cache.Lookup(124, box, &out));
  // Same scope, endpoint off by one bit pattern (-0.0 vs 0.0): miss.
  const std::vector<Interval> zero{Interval(0.5, 2.0), Interval(0.0, 1.0)};
  EXPECT_FALSE(cache.Lookup(123, zero, &out));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerdictCache, JsonRoundTripsGnarlyDoublesExactly) {
  VerdictCache cache;
  const double denormal = 5e-324;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Interval> box{Interval(-0.0, denormal),
                                  Interval(1.0 / 3.0, inf)};
  CachedVerdict v;
  v.kind = CachedKind::kDeltaSat;
  v.model = {2.0 / 3.0, 1e-300};
  v.model_box = {Interval(0.5, 0.75), Interval(1e-301, 1e-299)};
  v.nodes = 7;
  cache.Store(0xdeadbeefull, box, v);

  VerdictCache reloaded;
  ASSERT_TRUE(reloaded.FromJson(cache.ToJson()));
  EXPECT_EQ(reloaded.size(), 1u);
  CachedVerdict out;
  ASSERT_TRUE(reloaded.Lookup(0xdeadbeefull, box, &out));
  EXPECT_EQ(out.kind, CachedKind::kDeltaSat);
  EXPECT_EQ(out.model, v.model);
  ASSERT_EQ(out.model_box.size(), 2u);
  EXPECT_EQ(out.model_box[0].lo(), 0.5);
  EXPECT_EQ(out.model_box[1].hi(), 1e-299);
  EXPECT_EQ(out.nodes, 7u);
  // Canonical entry order makes serialization a fixed point.
  EXPECT_EQ(reloaded.ToJson(), cache.ToJson());
}

TEST(VerdictCache, CorruptOrTruncatedFilesDegradeToCold) {
  VerdictCache cache;
  EXPECT_FALSE(cache.FromJson("{garbage"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FromJson("{\"format\": \"something-else\"}"));
  // Truncated mid-document.
  VerdictCache full;
  full.Store(1, std::vector<Interval>{Interval(0.0, 1.0)}, CachedVerdict{});
  const std::string json = full.ToJson();
  EXPECT_FALSE(cache.FromJson(json.substr(0, json.size() / 2)));
  EXPECT_EQ(cache.size(), 0u);
  // Missing file.
  EXPECT_FALSE(cache.Load(TempPath("does-not-exist.json")));
}

// A whole, checksummed cache that declares a newer schema or another format
// is not torn: none of its entries may be replayed, and the reason names
// the header field at fault.
TEST(VerdictCache, ForeignSchemaOrFormatLoadsCold) {
  VerdictCache full;
  full.Store(1, std::vector<Interval>{Interval(0.0, 1.0)}, CachedVerdict{});
  const std::string json = full.ToJson();
  const struct {
    std::string from, to, reason;
  } kCases[] = {
      {"\"schema_version\": 1", "\"schema_version\": 2", "schema_version 2"},
      {"\"format\": \"xcv-verdict-cache\"", "\"format\": \"xcv-verdict-cash\"",
       "not an xcv-verdict-cache document"},
  };
  const std::string path = TempPath("foreign-cache.json");
  for (const auto& c : kCases) {
    std::string doc = json;
    const std::size_t at = doc.find(c.from);
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, c.from.size(), c.to);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << support::AddDocumentChecksum(doc);
    }
    VerdictCache cache;
    CacheLoadStats stats;
    EXPECT_FALSE(cache.Load(path, &stats)) << c.to;
    EXPECT_TRUE(stats.cold) << stats.detail;
    EXPECT_FALSE(stats.salvaged) << stats.detail;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_NE(stats.detail.find(c.reason), std::string::npos) << stats.detail;
    EXPECT_EQ(stats.quarantine_path, path + ".corrupt");
  }
}

TEST(VerdictCache, WarmCampaignReplaysByteIdenticalAndSkipsSolverCalls) {
  const std::string path = TempPath("cache_roundtrip.json");
  std::remove(path.c_str());

  // Reference: no cache at all.
  const CampaignResult bare = RunMatrixCampaign(FastCampaignOptions());

  // Cold run populates the cache file.
  CampaignOptions with_cache = FastCampaignOptions();
  with_cache.cache_path = path;
  const CampaignResult cold = RunMatrixCampaign(with_cache);
  EXPECT_FALSE(cold.cache_was_warm);
  EXPECT_GT(cold.cache_entries, 0u);
  EXPECT_EQ(cold.CacheHits(), 0u);

  // Warm run replays it.
  const CampaignResult warm = RunMatrixCampaign(with_cache);
  EXPECT_TRUE(warm.cache_was_warm);
  EXPECT_GT(warm.CacheHits(), 0u);
  EXPECT_EQ(warm.CacheRejected(), 0u);

  // The cache may only skip work, never change verdicts.
  EXPECT_EQ(DeterministicFace(bare), DeterministicFace(cold));
  EXPECT_EQ(DeterministicFace(bare), DeterministicFace(warm));

  // ... and it must actually skip: every deterministic verdict replays, so
  // the warm run does far fewer than half the cold run's solver calls.
  std::uint64_t cold_calls = 0, warm_calls = 0;
  for (const PairState& p : cold.pairs) cold_calls += p.report.solver_calls;
  for (const PairState& p : warm.pairs) warm_calls += p.report.solver_calls;
  EXPECT_GT(cold_calls, 0u);
  EXPECT_LE(warm_calls * 2, cold_calls);
  std::remove(path.c_str());
}

TEST(VerdictCache, SolverScopeIgnoresWaveWidthButTracksVerdictKnobs) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  solver::SolverOptions base;
  base.max_nodes = 2'000;
  auto scope_of = [&](const solver::SolverOptions& o) {
    return solver::DeltaSolver(not_psi, o).cache_scope();
  };

  const std::uint64_t reference = scope_of(base);
  // Pure batching knob: same scope, so caches survive wave-width changes.
  solver::SolverOptions wave = base;
  wave.wave_width = 64;
  EXPECT_EQ(scope_of(wave), reference);
  // Verdict-affecting knobs each move the scope.
  solver::SolverOptions delta = base;
  delta.delta = 1e-4;
  EXPECT_NE(scope_of(delta), reference);
  solver::SolverOptions nodes = base;
  nodes.max_nodes = 4'000;
  EXPECT_NE(scope_of(nodes), reference);
  solver::SolverOptions rounds = base;
  rounds.contraction_rounds = 3;
  EXPECT_NE(scope_of(rounds), reference);
  solver::SolverOptions salt = base;
  salt.cache_salt = 1;
  EXPECT_NE(scope_of(salt), reference);
}

TEST(VerdictCache, SolverConsultsAndRecords) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  VerdictCache cache;
  solver::SolverOptions opts;
  opts.max_nodes = 2'000;
  opts.cache = &cache;
  solver::DeltaSolver solver(not_psi, opts);
  const Box domain = conditions::PaperDomain(*pbe);

  const auto cold = solver.Check(domain);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(cache.size(), 1u);

  const auto warm = solver.Check(domain);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.kind, cold.kind);
  EXPECT_EQ(warm.model, cold.model);
  EXPECT_EQ(warm.stats.nodes, cold.stats.nodes);

  // Bypass flag forces a real solve.
  const auto fresh = solver.Check(domain, /*consult_cache=*/false);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(fresh.kind, cold.kind);
}

TEST(VerdictCache, EngineRejectsPoisonedEntries) {
  // Poison the cache: claim UNSAT (verified) for the whole EC1 domain of a
  // pair that actually has non-verified leaves. Revalidation cannot refute
  // "unsat" on boxes where interval evaluation is inconclusive, but a box
  // certainly containing violations classifies +1 and is rejected — and a
  // poisoned delta-sat whose model lies outside its box is always rejected.
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition("EC1"), *pbe);
  ASSERT_TRUE(psi.has_value());
  const auto not_psi = expr::BoolExpr::Not(*psi);

  VerdictCache cache;
  solver::SolverOptions opts;
  opts.max_nodes = 2'000;
  opts.cache = &cache;
  solver::DeltaSolver probe(not_psi, opts);
  const Box domain = conditions::PaperDomain(*pbe);

  // A genuine cold solve for reference.
  const auto truth = probe.Check(domain, /*consult_cache=*/false);

  // Poison: a delta-sat whose "model" is far outside the domain.
  CachedVerdict poison;
  poison.kind = CachedKind::kDeltaSat;
  poison.model = std::vector<double>(domain.size(), 1e9);
  poison.nodes = 1;
  cache.Store(probe.cache_scope(), domain.dims(), poison);

  verifier::VerifierOptions vopts;
  vopts.split_threshold = 10.0;  // the root is the only box
  vopts.solver = opts;
  verifier::Verifier verifier(*psi, vopts);
  const auto report = verifier.Run(domain);
  // The poisoned hit was rejected and re-solved: one real solver call, and
  // the leaf status matches the genuine verdict (no witness at 1e9).
  EXPECT_EQ(report.cache_rejected, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.solver_calls, 1u);
  ASSERT_EQ(report.leaves.size(), 1u);
  for (const auto& w : report.witnesses)
    for (double c : w) EXPECT_LT(std::abs(c), 1e8);
  // The re-solve overwrote the poisoned entry with the genuine verdict.
  CachedVerdict repaired;
  ASSERT_TRUE(cache.Lookup(probe.cache_scope(), domain.dims(), &repaired));
  EXPECT_EQ(repaired.nodes, truth.stats.nodes);
}

TEST(VerdictCache, CampaignToleratesCorruptCacheFile) {
  const std::string path = TempPath("cache_corrupt.json");
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"format\": \"xcv-verdict-cache\", \"version\": 1, \"entr";
  }
  CampaignOptions options = FastCampaignOptions();
  options.cache_path = path;
  const CampaignResult result = RunMatrixCampaign(options);
  EXPECT_FALSE(result.cache_was_warm);
  EXPECT_GT(result.cache_entries, 0u);  // ran cold, then saved a fresh cache
  EXPECT_EQ(DeterministicFace(result),
            DeterministicFace(RunMatrixCampaign(FastCampaignOptions())));
  // The rewritten file is valid and warm-loads now.
  const CampaignResult warm = RunMatrixCampaign(options);
  EXPECT_TRUE(warm.cache_was_warm);
  EXPECT_GT(warm.CacheHits(), 0u);
  std::remove(path.c_str());
}

TEST(VerdictCache, TapeFingerprintIsStructural) {
  const auto* pbe = functionals::FindFunctional("PBE");
  const auto* scan = functionals::FindFunctional("SCAN");
  const auto t1 = expr::CompileOptimized(pbe->eps_c);
  const auto t2 = expr::CompileOptimized(pbe->eps_c);
  const auto t3 = expr::CompileOptimized(scan->eps_c);
  EXPECT_EQ(expr::TapeFingerprint(t1), expr::TapeFingerprint(t2));
  EXPECT_NE(expr::TapeFingerprint(t1), expr::TapeFingerprint(t3));
}

}  // namespace
}  // namespace xcv::cache
