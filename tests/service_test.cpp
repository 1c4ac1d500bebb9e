// The verification-as-a-service layer (src/api/ + src/service/): job-spec
// JSON round-trips (exact doubles), the single validation path, the
// output-policy rules, the daemon's HTTP surface end to end over loopback
// (submit -> poll -> report byte-identical to `xcv verify`), warm
// resubmission through the shared verdict cache, pause -> daemon restart ->
// resume, and queue-journal durability (truncation sweep, injected torn
// write, injected read EIO).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/job_spec.h"
#include "api/render.h"
#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "service/daemon.h"
#include "service/http.h"
#include "support/check.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/json.h"

namespace xcv {
namespace {

namespace fault = support::fault;

using service::Daemon;
using service::DaemonOptions;
using service::HttpFetch;
using service::HttpRequest;
using service::HttpResponse;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A fresh per-test state directory under the gtest temp root.
std::string FreshStateDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "xcv_service_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// First `ncols` comma-separated columns of every line (the deterministic
/// prefix of the CSV report).
std::string CutColumns(const std::string& csv, int ncols) {
  std::string out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    const std::string line = csv.substr(pos, eol - pos);
    int commas = 0;
    std::size_t cut = line.size();
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == ',' && ++commas == ncols) {
        cut = i;
        break;
      }
    }
    out += line.substr(0, cut);
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

/// Sum of one numeric CSV column (0-based index) over the data rows.
std::uint64_t SumCsvColumn(const std::string& csv, int column) {
  std::uint64_t total = 0;
  std::size_t pos = csv.find('\n') + 1;  // skip header
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    const std::string line = csv.substr(pos, eol - pos);
    int field = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (field == column)
          total += std::strtoull(line.substr(start, i - start).c_str(),
                                 nullptr, 10);
        ++field;
        start = i + 1;
      }
    }
    pos = eol + 1;
  }
  return total;
}

/// Sum of every series whose line starts with `prefix` in a Prometheus
/// text exposition ("xcv_solver_calls_total" sums the whole family;
/// "xcv_cache_lookups_total{outcome=\"hit\"}" picks one series).
double PromCounterSum(const std::string& text, const std::string& prefix) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.compare(0, prefix.size(), prefix) == 0 && line[0] != '#') {
      const std::size_t space = line.rfind(' ');
      if (space != std::string::npos)
        total += std::strtod(line.c_str() + space + 1, nullptr);
    }
    pos = eol + 1;
  }
  return total;
}

/// Sum of the solver_calls column (12th, 0-based index 11) over the data
/// rows of a CSV report.
std::uint64_t SumSolverCalls(const std::string& csv) {
  std::uint64_t total = 0;
  std::size_t pos = csv.find('\n') + 1;  // skip header
  while (pos < csv.size()) {
    std::size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    const std::string line = csv.substr(pos, eol - pos);
    int field = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (field == 11)
          total += std::strtoull(line.substr(start, i - start).c_str(),
                                 nullptr, 10);
        ++field;
        start = i + 1;
      }
    }
    pos = eol + 1;
  }
  return total;
}

/// Polls GET /v1/campaigns/:id until its status is one of `want` (or the
/// deadline passes); returns the final status token.
std::string WaitForStatus(int port, const std::string& id,
                          const std::vector<std::string>& want,
                          double timeout_s = 60.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::string status;
  while (std::chrono::steady_clock::now() < deadline) {
    const HttpResponse resp = HttpFetch(port, "GET", "/v1/campaigns/" + id);
    status = json::ParseJson(resp.body).At("status").AsString();
    for (const std::string& w : want)
      if (status == w) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return status;
}

/// The reference for byte-identity checks: the same spec document run
/// through the same API layer the CLI uses (no daemon, no cache).
std::string DirectCsv(const std::string& spec_json) {
  const api::JobSpec spec = api::ParseJobSpecJson(spec_json);
  campaign::Campaign campaign(spec.options);
  api::PopulateCampaign(spec, campaign);
  const campaign::CampaignResult result = campaign.Run();
  return api::CsvReport(result.pairs);
}

// A 4-pair matrix that completes in milliseconds, budget-free and
// node-capped so every column through solver_timeouts is deterministic.
constexpr char kInstantSpec[] = R"({
  "format": "xcv-job-spec",
  "functionals": "lda",
  "conditions": "EC1..EC4",
  "output": "csv",
  "verifier": {"budget_seconds": 0},
  "solver": {"max_nodes": 2000}
})";

// A 4-pair matrix with a couple of seconds of real solving (PBE), used by
// the pause/restart/resume test so there is a window to pause inside.
constexpr char kSlowSpec[] = R"({
  "format": "xcv-job-spec",
  "functionals": "lda,pbe",
  "conditions": "EC1..EC2",
  "output": "csv",
  "verifier": {"budget_seconds": 0},
  "solver": {"max_nodes": 1000}
})";

// ---- Output policy ----------------------------------------------------------

TEST(OutputPolicyTest, MachineModesWithMarkersSuppressProgress) {
  // Table + heartbeat stream: progress chatter is fine, stdout is human.
  api::OutputPolicy p =
      api::ResolveOutput(api::OutputMode::kTable, false, true);
  EXPECT_TRUE(p.progress);
  EXPECT_TRUE(p.stream_markers);

  // CSV + heartbeat stream: stdout is machine-read and shares the process
  // with a marker stream — progress must be forced off.
  p = api::ResolveOutput(api::OutputMode::kCsv, false, true);
  EXPECT_FALSE(p.progress);
  EXPECT_TRUE(p.stream_markers);

  // CSV without markers: progress (stderr) is allowed.
  p = api::ResolveOutput(api::OutputMode::kCsv, false, false);
  EXPECT_TRUE(p.progress);

  // Quiet always wins.
  p = api::ResolveOutput(api::OutputMode::kTable, true, false);
  EXPECT_FALSE(p.progress);
}

TEST(OutputPolicyTest, ModeTokensRoundTripAndRejectTypos) {
  for (const api::OutputMode m :
       {api::OutputMode::kTable, api::OutputMode::kJson,
        api::OutputMode::kCsv})
    EXPECT_EQ(api::OutputModeFromToken(api::OutputModeToken(m)), m);
  EXPECT_THROW(api::OutputModeFromToken("tabel"), InternalError);
  EXPECT_TRUE(api::IsMachineOutput(api::OutputMode::kCsv));
  EXPECT_TRUE(api::IsMachineOutput(api::OutputMode::kJson));
  EXPECT_FALSE(api::IsMachineOutput(api::OutputMode::kTable));
}

// ---- Job-spec JSON ----------------------------------------------------------

TEST(JobSpecJsonTest, RoundTripIsExactIncludingGnarlyDoubles) {
  api::JobSpec spec = api::DefaultJobSpec();
  spec.functionals = "pbe,scan";
  spec.conditions = "EC1..EC4";
  spec.tenant = "team-a";
  spec.output = api::OutputMode::kJson;
  spec.quiet = true;
  spec.options.num_threads = 3;
  spec.options.verifier.num_threads = 3;
  // Doubles chosen to break any printf("%g")-grade serializer: a repeating
  // binary fraction, an accumulated rounding artifact, the smallest
  // denormal, a huge magnitude, and infinity.
  spec.options.verifier.split_threshold = 0.1;
  spec.options.verifier.solver.time_budget_seconds = 0.1 + 0.2;
  spec.options.verifier.solver.delta = 5e-324;
  spec.options.verifier.witness_tolerance = 1e300;
  spec.options.verifier.total_time_budget_seconds =
      std::numeric_limits<double>::infinity();
  spec.runtime.max_retries = 7;
  spec.runtime.quarantine_after = 2;

  const std::string doc = api::WriteJobSpecJson(spec);
  const api::JobSpec back = api::ParseJobSpecJson(doc);

  EXPECT_EQ(back.functionals, "pbe,scan");
  EXPECT_EQ(back.conditions, "EC1..EC4");
  EXPECT_EQ(back.tenant, "team-a");
  EXPECT_EQ(back.output, api::OutputMode::kJson);
  EXPECT_TRUE(back.quiet);
  EXPECT_EQ(back.options.num_threads, 3);
  EXPECT_EQ(back.options.verifier.split_threshold, 0.1);
  EXPECT_EQ(back.options.verifier.solver.time_budget_seconds, 0.1 + 0.2);
  EXPECT_EQ(back.options.verifier.solver.delta, 5e-324);
  EXPECT_EQ(back.options.verifier.witness_tolerance, 1e300);
  EXPECT_TRUE(std::isinf(back.options.verifier.total_time_budget_seconds));
  EXPECT_EQ(back.runtime.max_retries, 7);
  EXPECT_EQ(back.runtime.quarantine_after, 2);

  // Serialization is a fixpoint: write(parse(write(s))) == write(s).
  EXPECT_EQ(api::WriteJobSpecJson(back), doc);
}

TEST(JobSpecJsonTest, SparseDocumentKeepsDefaults) {
  const api::JobSpec defaults = api::DefaultJobSpec();
  const api::JobSpec spec = api::ParseJobSpecJson("{}");
  EXPECT_EQ(spec.functionals, "all");
  EXPECT_EQ(spec.conditions, "all");
  EXPECT_EQ(spec.options.verifier.solver.max_nodes,
            defaults.options.verifier.solver.max_nodes);
  EXPECT_EQ(spec.options.verifier.split_threshold,
            defaults.options.verifier.split_threshold);
  EXPECT_EQ(spec.output, api::OutputMode::kTable);

  // budget_seconds: 0 on the wire means unlimited, both directions.
  const api::JobSpec unlimited = api::ParseJobSpecJson(
      R"({"verifier": {"budget_seconds": 0}})");
  EXPECT_TRUE(
      std::isinf(unlimited.options.verifier.total_time_budget_seconds));
}

TEST(JobSpecJsonTest, RejectsBadDocuments) {
  // Malformed JSON.
  EXPECT_THROW(api::ParseJobSpecJson("{not json"), InternalError);
  // A different format's document.
  EXPECT_THROW(api::ParseJobSpecJson(R"({"format": "xcv-verdict-cache"})"),
               InternalError);
  // A schema major this build does not speak.
  EXPECT_THROW(api::ParseJobSpecJson(R"({"schema_version": 99})"),
               InternalError);
  // Negative budgets are not "unlimited", they are mistakes.
  EXPECT_THROW(
      api::ParseJobSpecJson(R"({"verifier": {"budget_seconds": -1}})"),
      InternalError);
  // Validation runs inside parse: a selector typo is caught at the door.
  EXPECT_THROW(api::ParseJobSpecJson(R"({"functionals": "nosuch"})"),
               InternalError);
}

TEST(JobSpecValidateTest, RejectsOutOfRangeFields) {
  const api::JobSpec good = api::DefaultJobSpec();
  EXPECT_NO_THROW(api::ValidateJobSpec(good));

  api::JobSpec s = good;
  s.conditions = "EC1..EC999";
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.options.num_threads = 0;
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.options.verifier.solver.delta = 0.0;
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.options.verifier.split_threshold = -0.5;
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.options.verifier.solver.wave_width = 0;
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.options.cache_readonly = true;  // read-only needs a path to read
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);

  s = good;
  s.runtime.quarantine_after = 0;
  EXPECT_THROW(api::ValidateJobSpec(s), InternalError);
}

TEST(JobSpecTest, PopulateCampaignMatchesInitialPairsOrder) {
  api::JobSpec spec = api::DefaultJobSpec();
  spec.functionals = "lda,pbe";
  spec.conditions = "EC1..EC2";
  const std::vector<campaign::PairState> pairs = api::InitialPairs(spec);
  campaign::Campaign campaign(spec.options);
  api::PopulateCampaign(spec, campaign);
  ASSERT_EQ(campaign.PairCount(), pairs.size());
  // Condition-major: EC1 x {VWN_RPA, PBE}, then EC2 x {VWN_RPA, PBE} —
  // the order `xcv verify` has always rendered.
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].condition, "EC1");
  EXPECT_EQ(pairs[1].condition, "EC1");
  EXPECT_EQ(pairs[2].condition, "EC2");
  EXPECT_EQ(pairs[0].functional, pairs[2].functional);
}

// ---- Daemon HTTP surface ----------------------------------------------------

TEST(DaemonHttpTest, RoutesRejectUnknownAndMalformed) {
  DaemonOptions options;
  options.state_dir = FreshStateDir("routes");
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();

  EXPECT_EQ(daemon.Handle({"GET", "/nope", {}, {}, ""}).status, 404);
  EXPECT_EQ(daemon.Handle({"PUT", "/v1/campaigns", {}, {}, ""}).status, 405);
  EXPECT_EQ(daemon.Handle({"GET", "/v1/campaigns/j99", {}, {}, ""}).status,
            404);
  EXPECT_EQ(
      daemon.Handle({"POST", "/v1/campaigns", {}, {}, "{not json"}).status,
      400);
  EXPECT_EQ(daemon
                .Handle({"POST", "/v1/campaigns", {}, {},
                         R"({"functionals": "bogus"})"})
                .status,
            400);
  EXPECT_EQ(daemon.Handle({"GET", "/v1/healthz", {}, {}, ""}).status, 200);
  EXPECT_EQ(daemon.Handle({"GET", "/v1/info", {}, {}, ""}).status, 200);
  daemon.Stop();
}

TEST(DaemonHttpTest, SubmitPollReportMatchesDirectRunByteForByte) {
  const std::string reference = DirectCsv(kInstantSpec);

  DaemonOptions options;
  options.state_dir = FreshStateDir("e2e");
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();

  // Submit over real loopback HTTP.
  const HttpResponse submit =
      HttpFetch(port, "POST", "/v1/campaigns", kInstantSpec);
  ASSERT_EQ(submit.status, 201) << submit.body;
  const std::string id = json::ParseJson(submit.body).At("id").AsString();
  EXPECT_EQ(id, "j1");

  ASSERT_EQ(WaitForStatus(port, id, {"done", "failed"}), "done");

  // The fresh daemon's cache was cold, so every CSV column through
  // solver_timeouts (1–13) is byte-identical to the direct uncached run.
  const HttpResponse report =
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/report?format=csv");
  ASSERT_EQ(report.status, 200);
  EXPECT_EQ(report.content_type, "text/csv");
  EXPECT_EQ(CutColumns(report.body, 13), CutColumns(reference, 13));

  const std::uint64_t cold_calls = SumSolverCalls(report.body);
  EXPECT_GT(cold_calls, 0u);
  EXPECT_GT(daemon.CacheSize(), 0u);

  // Warm resubmission of the same spec: the shared verdict cache replays
  // the decisions, skipping at least half the solver calls (here: all of
  // them) — and the deterministic columns still match.
  const HttpResponse submit2 =
      HttpFetch(port, "POST", "/v1/campaigns", kInstantSpec);
  ASSERT_EQ(submit2.status, 201);
  const std::string id2 = json::ParseJson(submit2.body).At("id").AsString();
  ASSERT_EQ(WaitForStatus(port, id2, {"done", "failed"}), "done");
  const HttpResponse report2 =
      HttpFetch(port, "GET", "/v1/campaigns/" + id2 + "/report?format=csv");
  const std::uint64_t warm_calls = SumSolverCalls(report2.body);
  EXPECT_LE(warm_calls * 2, cold_calls)
      << "warm resubmission skipped too few solver calls";
  EXPECT_EQ(CutColumns(report2.body, 11), CutColumns(reference, 11));

  // The other report formats serve from the same checkpoint.
  const HttpResponse as_json =
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/report?format=json");
  ASSERT_EQ(as_json.status, 200);
  const campaign::Checkpoint cp = campaign::CheckpointFromJson(as_json.body);
  EXPECT_EQ(cp.pairs.size(), 4u);
  EXPECT_EQ(
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/report?format=nope")
          .status,
      400);

  // List + healthz see both jobs done.
  const HttpResponse list = HttpFetch(port, "GET", "/v1/campaigns");
  EXPECT_EQ(json::ParseJson(list.body).At("jobs").array.size(), 2u);
  const HttpResponse health = HttpFetch(port, "GET", "/v1/healthz");
  EXPECT_EQ(
      static_cast<int>(json::ParseJson(health.body).At("done").AsDouble()),
      2);

  // POST /v1/shutdown only raises the flag — the owner calls Stop.
  EXPECT_FALSE(daemon.ShutdownRequested());
  EXPECT_EQ(HttpFetch(port, "POST", "/v1/shutdown").status, 202);
  EXPECT_TRUE(daemon.ShutdownRequested());
  daemon.Stop();

  // Stop persisted the shared cache and the journal for the next start.
  EXPECT_TRUE(
      std::filesystem::exists(options.state_dir + "/cache.json"));
  EXPECT_TRUE(
      std::filesystem::exists(options.state_dir + "/queue.json"));
}

TEST(DaemonHttpTest, MetricsEndpointAgreesWithReportAndServesTraces) {
  DaemonOptions options;
  options.state_dir = FreshStateDir("metrics");
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();

  // Scrape before/after: the registry is process-wide, so the job's
  // contribution is the delta between the two exposures.
  const HttpResponse before = HttpFetch(port, "GET", "/v1/metrics");
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(before.content_type.find("version=0.0.4"), std::string::npos);
  const double calls_before =
      PromCounterSum(before.body, "xcv_solver_calls_total");
  const double hits_before = PromCounterSum(
      before.body, "xcv_cache_lookups_total{outcome=\"hit\"}");

  const HttpResponse submit =
      HttpFetch(port, "POST", "/v1/campaigns", kInstantSpec);
  ASSERT_EQ(submit.status, 201) << submit.body;
  const std::string id = json::ParseJson(submit.body).At("id").AsString();
  ASSERT_EQ(WaitForStatus(port, id, {"done", "failed"}), "done");
  const HttpResponse report =
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/report?format=csv");
  ASSERT_EQ(report.status, 200);

  const HttpResponse after = HttpFetch(port, "GET", "/v1/metrics");
  ASSERT_EQ(after.status, 200);
  const double calls_delta =
      PromCounterSum(after.body, "xcv_solver_calls_total") - calls_before;
  const double hits_delta =
      PromCounterSum(after.body, "xcv_cache_lookups_total{outcome=\"hit\"}") -
      hits_before;

  // The scraped counters agree exactly with the job's own report: solver
  // calls with column 12, cache hits with column 14.
  EXPECT_EQ(calls_delta, static_cast<double>(SumSolverCalls(report.body)));
  EXPECT_EQ(hits_delta, static_cast<double>(SumCsvColumn(report.body, 13)));
  EXPECT_GT(calls_delta, 0.0);

  // Healthz carries the same totals in its metrics section.
  const HttpResponse health = HttpFetch(port, "GET", "/v1/healthz");
  EXPECT_EQ(json::ParseJson(health.body)
                .At("metrics")
                .At("solver_calls")
                .AsDouble(),
            PromCounterSum(after.body, "xcv_solver_calls_total"));

  // The job ran with job traces on (the default): its span timeline parses
  // as trace_event JSON and contains the job -> solve nesting.
  const HttpResponse trace =
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/trace");
  ASSERT_EQ(trace.status, 200) << trace.body;
  EXPECT_EQ(trace.content_type, "application/json");
  const json::JsonValue root = json::ParseJson(trace.body);
  bool saw_job = false, saw_solve = false;
  for (const json::JsonValue& e : root.At("traceEvents").array) {
    if (const json::JsonValue* n = e.Find("name")) {
      if (n->AsString() == "job") saw_job = true;
      if (n->AsString() == "solve") saw_solve = true;
    }
  }
  EXPECT_TRUE(saw_job);
  EXPECT_TRUE(saw_solve);

  // No trace for a job that has not run.
  const HttpResponse submit2 = HttpFetch(
      port, "POST", "/v1/campaigns",
      R"({"functionals": "lda", "conditions": "EC1", "output": "csv"})");
  ASSERT_EQ(submit2.status, 201);
  const std::string id2 = json::ParseJson(submit2.body).At("id").AsString();
  // Poll the trace endpoint immediately; either it 404s (not run yet) or
  // the job already finished and it serves JSON — both are valid, but an
  // unknown id must still 404.
  EXPECT_EQ(HttpFetch(port, "GET", "/v1/campaigns/j999/trace").status, 404);
  WaitForStatus(port, id2, {"done", "failed"});
  daemon.Stop();
}

TEST(DaemonHttpTest, SchedulerRoundRobinsAcrossTenantsAtOneSlot) {
  // The starvation shape the fairness guarantee exists for: tenant a
  // queues a backlog, then tenant b submits one job. At
  // max_concurrent_jobs=1 no job is ever in flight at pick time, so the
  // least-recently-served tie-break (not in-flight load) is what must put
  // tenant b ahead of tenant a's second job.
  auto spec_for = [](const std::string& tenant) {
    return std::string(R"({
  "format": "xcv-job-spec",
  "functionals": "lda",
  "conditions": "EC1..EC4",
  "output": "csv",
  "tenant": ")") +
           tenant + R"(",
  "verifier": {"budget_seconds": 0},
  "solver": {"max_nodes": 2000}
})";
  };

  fault::Disarm();
  // Slow every pair completion so all three submissions land while
  // tenant a's first job is still running.
  fault::ArmFromSpec("campaign.pair-done.delay@*=400");

  DaemonOptions options;
  options.state_dir = FreshStateDir("fairness");
  options.port = 0;
  options.max_concurrent_jobs = 1;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();

  auto submit = [&](const std::string& tenant) {
    const HttpResponse resp =
        HttpFetch(port, "POST", "/v1/campaigns", spec_for(tenant));
    EXPECT_EQ(resp.status, 201) << resp.body;
    return json::ParseJson(resp.body).At("id").AsString();
  };
  const std::string a1 = submit("tenant-a");
  const std::string a2 = submit("tenant-a");
  const std::string b1 = submit("tenant-b");

  // Jobs run serially, so completion order is admission order: when
  // tenant b's job is done, tenant a's second job must not be.
  ASSERT_EQ(WaitForStatus(port, b1, {"done", "failed"}), "done");
  const HttpResponse poll = HttpFetch(port, "GET", "/v1/campaigns/" + a2);
  EXPECT_NE(json::ParseJson(poll.body).At("status").AsString(), "done")
      << "tenant-a's backlog was served ahead of tenant-b's first job";

  ASSERT_EQ(WaitForStatus(port, a1, {"done", "failed"}), "done");
  ASSERT_EQ(WaitForStatus(port, a2, {"done", "failed"}), "done");
  fault::Disarm();
  daemon.Stop();
}

TEST(DaemonHttpTest, PauseSurvivesDaemonRestartAndResumesToSameReport) {
  const std::string reference = DirectCsv(kSlowSpec);
  const std::string state_dir = FreshStateDir("pause");

  fault::Disarm();
  // Slow each pair completion down so the pause request has a window to
  // land while the job is genuinely mid-flight.
  fault::ArmFromSpec("campaign.pair-done.delay@*=400");

  std::string id;
  bool paused_in_flight = false;
  {
    DaemonOptions options;
    options.state_dir = state_dir;
    options.port = 0;
    Daemon daemon(options);
    daemon.Start();
    const int port = daemon.port();

    const HttpResponse submit =
        HttpFetch(port, "POST", "/v1/campaigns", kSlowSpec);
    ASSERT_EQ(submit.status, 201);
    id = json::ParseJson(submit.body).At("id").AsString();

    // Wait for the first pair to complete (so there is a checkpoint), then
    // ask for a cooperative pause.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const HttpResponse poll =
          HttpFetch(port, "GET", "/v1/campaigns/" + id);
      if (json::ParseJson(poll.body).At("pairs_done").AsDouble() >= 1.0)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const HttpResponse pause =
        HttpFetch(port, "POST", "/v1/campaigns/" + id + "/pause");
    if (pause.status == 202 || pause.status == 200) {
      const std::string status =
          WaitForStatus(port, id, {"paused", "done"}, 30.0);
      paused_in_flight = (status == "paused");
    }
    // else 409: the tiny campaign beat the pause request — fall through,
    // the byte-identity check below still runs.
    fault::Disarm();
    daemon.Stop();
  }

  // A brand-new daemon process (fresh Daemon on the same state dir): the
  // journal brings the queue back, the checkpoint brings the pairs back.
  DaemonOptions options;
  options.state_dir = state_dir;
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();

  const HttpResponse poll = HttpFetch(port, "GET", "/v1/campaigns/" + id);
  ASSERT_EQ(poll.status, 200);
  const std::string recovered =
      json::ParseJson(poll.body).At("status").AsString();
  if (paused_in_flight) {
    EXPECT_EQ(recovered, "paused");
    // Paused means paused: the restarted daemon must not auto-run it.
    const HttpResponse resume =
        HttpFetch(port, "POST", "/v1/campaigns/" + id + "/resume");
    EXPECT_EQ(resume.status, 202);
  }
  ASSERT_EQ(WaitForStatus(port, id, {"done", "failed"}), "done");

  // Columns 1–11 are deterministic across cache states and interruption
  // points: the resumed run must reproduce the uninterrupted report.
  const HttpResponse report =
      HttpFetch(port, "GET", "/v1/campaigns/" + id + "/report?format=csv");
  ASSERT_EQ(report.status, 200);
  EXPECT_EQ(CutColumns(report.body, 11), CutColumns(reference, 11));
  daemon.Stop();
}

TEST(DaemonHttpTest, JobsFinishingTogetherSaveTheSharedCacheSafely) {
  // Every runner persists the shared cache when its job ends, staging
  // through one `cache.json.tmp`. Two jobs admitted side by side finish
  // within microseconds of each other once the cache is warm; unless the
  // saves are serialized, the loser's rename fails inside the runner
  // thread and the process aborts.
  DaemonOptions options;
  options.state_dir = FreshStateDir("cache-save-race");
  options.port = 0;
  options.max_concurrent_jobs = 2;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();
  for (int round = 0; round < 60; ++round) {
    std::string ids[2];
    for (std::string& id : ids) {
      const HttpResponse resp =
          HttpFetch(port, "POST", "/v1/campaigns", kInstantSpec);
      ASSERT_EQ(resp.status, 201) << resp.body;
      id = json::ParseJson(resp.body).At("id").AsString();
    }
    for (const std::string& id : ids)
      ASSERT_EQ(WaitForStatus(port, id, {"done", "failed"}), "done")
          << "round " << round;
  }
  daemon.Stop();

  cache::VerdictCache loaded;
  cache::CacheLoadStats stats;
  EXPECT_TRUE(loaded.Load(options.state_dir + "/cache.json", &stats))
      << stats.detail;
  EXPECT_TRUE(stats.clean) << stats.detail;
  EXPECT_GT(loaded.size(), 0u);
  EXPECT_FALSE(
      std::filesystem::exists(options.state_dir + "/cache.json.tmp"));
}

// ---- Queue-journal durability -----------------------------------------------

/// Builds a state dir whose journal records two completed instant jobs,
/// and returns the journal bytes.
std::string BuildCompletedQueue(const std::string& state_dir) {
  DaemonOptions options;
  options.state_dir = state_dir;
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const int port = daemon.port();
  for (int i = 0; i < 2; ++i) {
    const HttpResponse submit =
        HttpFetch(port, "POST", "/v1/campaigns", kInstantSpec);
    EXPECT_EQ(submit.status, 201);
  }
  EXPECT_EQ(WaitForStatus(port, "j1", {"done", "failed"}), "done");
  EXPECT_EQ(WaitForStatus(port, "j2", {"done", "failed"}), "done");
  daemon.Stop();
  return ReadAll(state_dir + "/queue.json");
}

TEST(ServiceJournalTest, TruncationSweepSalvagesOrStartsColdNeverCrashes) {
  const std::string seed_dir = FreshStateDir("sweep_seed");
  const std::string bytes = BuildCompletedQueue(seed_dir);
  ASSERT_GT(bytes.size(), 0u);
  EXPECT_EQ(support::VerifyDocumentChecksum(bytes),
            support::ChecksumStatus::kOk);

  const std::string dir = FreshStateDir("sweep");
  std::filesystem::create_directories(dir);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 41);
  for (std::size_t len = 0; len <= bytes.size(); len += stride) {
    WriteAll(dir + "/queue.json", bytes.substr(0, len));
    std::filesystem::remove(dir + "/queue.json.corrupt");

    DaemonOptions options;
    options.state_dir = dir;
    options.port = 0;
    Daemon daemon(options);
    daemon.Start();  // must never throw or crash, whatever survived

    const HttpResponse list =
        daemon.Handle({"GET", "/v1/campaigns", {}, {}, ""});
    const std::size_t recovered =
        json::ParseJson(list.body).At("jobs").array.size();
    EXPECT_LE(recovered, 2u) << "truncation at " << len
                             << " invented a job";
    if (len == bytes.size()) {
      // The untruncated journal is clean: everything loads.
      EXPECT_EQ(recovered, 2u);
    } else if (len < bytes.size()) {
      // Torn: the damaged original is quarantined for post-mortems
      // (except the trivially-empty file, which has nothing to keep).
      if (recovered > 0)
        EXPECT_TRUE(std::filesystem::exists(dir + "/queue.json.corrupt"))
            << "salvage at " << len << " kept no evidence";
    }
    daemon.Stop();
  }
}

TEST(ServiceJournalTest, LoadEioStartsColdWithoutCrashing) {
  const std::string dir = FreshStateDir("eio");
  BuildCompletedQueue(dir);

  fault::Disarm();
  fault::ArmFromSpec("service.journal.load.eio@1");
  DaemonOptions options;
  options.state_dir = dir;
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const HttpResponse list =
      daemon.Handle({"GET", "/v1/campaigns", {}, {}, ""});
  EXPECT_EQ(json::ParseJson(list.body).At("jobs").array.size(), 0u);
  daemon.Stop();
  fault::Disarm();
}

TEST(ServiceJournalTest, SalvagedCheckpointResumesTheWholeMatrix) {
  const std::string reference = DirectCsv(kInstantSpec);
  const std::string dir = FreshStateDir("salvaged_ck");
  {
    DaemonOptions options;
    options.state_dir = dir;
    options.port = 0;
    Daemon daemon(options);
    daemon.Start();
    ASSERT_EQ(HttpFetch(daemon.port(), "POST", "/v1/campaigns", kInstantSpec)
                  .status,
              201);
    ASSERT_EQ(WaitForStatus(daemon.port(), "j1", {"done", "failed"}), "done");
    daemon.Stop();
  }

  // Tear the job's checkpoint after its second pair (each pair object
  // opens on a "\n    {\n" line) ...
  const std::string checkpoint = dir + "/job-j1.json";
  const std::string bytes = ReadAll(checkpoint);
  std::size_t cut = 0;
  for (int pair = 0; pair < 3; ++pair) {
    cut = bytes.find("\n    {\n", cut + 1);
    ASSERT_NE(cut, std::string::npos);
  }
  WriteAll(checkpoint, bytes.substr(0, cut));
  const campaign::CheckpointLoadResult torn =
      campaign::LoadCheckpointFileTolerant(checkpoint);
  ASSERT_TRUE(torn.salvaged) << torn.detail;
  ASSERT_EQ(torn.checkpoint.pairs.size(), 2u);

  // ... and record the job as running when the daemon died. Dropping the
  // checksum line keeps the journal a valid (legacy) document.
  std::string journal = ReadAll(dir + "/queue.json");
  const std::size_t sum = journal.find("  \"checksum\"");
  ASSERT_NE(sum, std::string::npos);
  journal.erase(sum, journal.find('\n', sum) + 1 - sum);
  const std::string done = "\"status\": \"done\"";
  const std::size_t status = journal.find(done);
  ASSERT_NE(status, std::string::npos);
  journal.replace(status, done.size(), "\"status\": \"running\"");
  WriteAll(dir + "/queue.json", journal);
  // Without the shared cache the lost pairs solve cold, so solver_calls
  // (column 12) is comparable with the cache-less direct run too.
  std::filesystem::remove(dir + "/cache.json");

  // The restarted daemon re-queues the job; the two pairs the salvage lost
  // must run again, not vanish from the report.
  DaemonOptions options;
  options.state_dir = dir;
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  ASSERT_EQ(WaitForStatus(daemon.port(), "j1", {"done", "failed"}), "done");
  const HttpResponse report = HttpFetch(
      daemon.port(), "GET", "/v1/campaigns/j1/report?format=csv");
  ASSERT_EQ(report.status, 200);
  EXPECT_EQ(CutColumns(report.body, 13), CutColumns(reference, 13));
  daemon.Stop();
}

using ServiceFaultDeathTest = ::testing::Test;

TEST(ServiceFaultDeathTest, JournalShortWriteCrashesThenSalvages) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = FreshStateDir("shortwrite");
  BuildCompletedQueue(dir);

  // The re-save at Start tears: half the journal bytes land under the
  // final name, then the process dies with the canonical fault exit code.
  EXPECT_EXIT(
      {
        fault::ArmFromSpec("service.journal.save.short-write");
        DaemonOptions options;
        options.state_dir = dir;
        options.port = 0;
        Daemon daemon(options);
        daemon.Start();
      },
      testing::ExitedWithCode(fault::kFaultExitCode), "");

  // The file on disk really is torn now.
  EXPECT_THROW(json::ParseJson(ReadAll(dir + "/queue.json")), InternalError);

  // A restart salvages the intact prefix (or starts cold), quarantines the
  // evidence, and keeps serving.
  DaemonOptions options;
  options.state_dir = dir;
  options.port = 0;
  Daemon daemon(options);
  daemon.Start();
  const HttpResponse list =
      daemon.Handle({"GET", "/v1/campaigns", {}, {}, ""});
  EXPECT_LE(json::ParseJson(list.body).At("jobs").array.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/queue.json.corrupt"));
  EXPECT_EQ(daemon.Handle({"GET", "/v1/healthz", {}, {}, ""}).status, 200);
  daemon.Stop();
}

}  // namespace
}  // namespace xcv
