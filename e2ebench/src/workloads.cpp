#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/stat.h>

#include "api/render.h"
#include "cache/verdict_cache.h"
#include "campaign/serialize.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "service/daemon.h"
#include "service/http.h"
#include "support/json.h"

namespace xcvb {

namespace {

namespace fs = std::filesystem;
using xcv::campaign::Campaign;
using xcv::campaign::CampaignResult;
using xcv::campaign::PairState;

// Set-up is repeated and its median reported; the warm-replay set-up holds
// a cold pass of the pool, so it repeats fewer times.
constexpr int kSetupRepeats = 9;
constexpr int kReplaySetupRepeats = 2;
// Each cold pass enqueues the pool in its own seeded order: the order moves
// a pass's wall time by several percent, so a run reports the median over
// orders rather than one order's time.
constexpr int kColdMinOps = 3;
constexpr int kReplayMinOps = 100;
constexpr int kServiceMinEpochs = 5;
// The warm-up pass: every pool pair, 50 nodes per call, boxes split only
// down to width 1.25.
constexpr std::uint64_t kWarmupNodes = 50;
constexpr double kWarmupSplitThreshold = 1.25;
// The open-loop probe rate is derived, not chosen: set-up times
// kCalibrationProbes probes of the route mix back to back on the idle
// daemon, and probes are then due every (mean round trip / kProbeLoad), so
// they keep the daemon's serial accept thread 5% busy whatever the host's
// speed. The load is that low so that the loop keeps to its schedule while
// the host runs two to three times slower than at calibration; at 25%, such
// a slowdown put the schedule behind and the p90 rose tenfold.
constexpr double kProbeLoad = 0.05;
constexpr std::size_t kCalibrationProbes = 100;
constexpr std::size_t kProbeRoutesLength = 5 * 8192;
constexpr double kPollPeriodS = 0.020;  // closed-loop job status polls
constexpr int kServiceJobThreads = 2;
// xcvd saves its shared cache after every job outside its lock, always
// through the same temporary file name, so two saves at once fail the
// second rename and abort the daemon. With two tenants' jobs running at
// once (max_concurrent_jobs = 2) about one run in 50 aborted. Until the
// daemon serializes its saves, the client keeps one job in flight and
// submits the next only after the daemon has replaced its cache file.
constexpr int kServiceMaxJobs = 1;
constexpr double kSavePollPeriodS = 0.001;
constexpr double kCacheSaveTimeoutS = 60.0;

const double kInf = std::numeric_limits<double>::infinity();

// ---- Metric catalogs (mirrored in BENCHMARK.json and CATALOG.md) ------------

const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"setup_s", "s"},
      {"pass_s", "s"},
      {"latency_p50_ms", "ms"},
      {"peak_rss_mb", "MB"}};
  return kCatalog;
}

const std::vector<std::string> kProbeRoutes = {"healthz", "job",    "list",
                                               "metrics", "report", "submit"};

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"op.latency_p90_ms", "ms"},
        {"campaign.run_s", "s"},
        {"campaign.pairs", "count"},
        {"campaign.checkpoint_write_ms", "ms"},
        {"campaign.checkpoint_bytes", "bytes"},
        {"verifier.solver_calls", "count"},
        {"verifier.solver_timeouts", "count"},
        {"verifier.busy_s", "s"},
        {"verifier.timeout_frac", "ratio"},
        {"solver.nodes", "count"},
        {"solver.contractions", "count"},
        {"solver.prunes", "count"},
        {"solver.nodes_per_busy_s", "1/s"},
        {"solver.classify_s", "s"},
        {"solver.contract_s", "s"},
        {"solver.unattributed_s", "s"},
        {"thread_pool.tasks", "count"},
        {"thread_pool.steals", "count"},
        {"thread_pool.wait_s", "s"},
        {"thread_pool.parallel_eff", "ratio"},
        {"cache.load_ms", "ms"},
        {"cache.replay_run_ms", "ms"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.rejected", "count"},
        {"cache.revalidations", "count"},
        {"cache.entries", "count"},
        {"cache.file_bytes", "bytes"},
        {"cache.save_ms", "ms"},
        {"cache.hit_rate", "ratio"},
        {"service.http_p50_ms", "ms"},
        {"service.http_p90_ms", "ms"},
        {"service.job_turnaround_p50_s", "s"},
        {"service.requests", "count"},
        {"service.errors", "count"},
        {"service.admission_wait_s", "s"},
        {"service.state_bytes", "bytes"},
        {"service.gen_late_p90_ms", "ms"},
        {"service.probe_period_ms", "ms"},
        {"obs.trace_overhead_frac", "ratio"},
        {"obs.job_trace_bytes", "bytes"},
        {"obs.attributed_frac", "ratio"}};
    for (const std::string& r : kProbeRoutes)
      c.push_back({"service.http_p50_ms." + r, "ms"});
    return c;
  }();
  return kCatalog;
}

// Collects metrics by name; Finish() emits exactly the catalog, in order,
// with 0 for what this workload does not exercise.
class MetricSet {
 public:
  double& operator[](const std::string& name) { return values_[name]; }
  std::vector<Metric> Finish(
      const std::vector<std::pair<std::string, std::string>>& catalog) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : catalog) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    for (const auto& [name, value] : values_) {
      const bool known =
          std::any_of(catalog.begin(), catalog.end(),
                      [&](const auto& c) { return c.first == name; });
      if (!known) throw std::logic_error("metric not in catalog: " + name);
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Shared plumbing --------------------------------------------------------

const xcv::functionals::Functional& F(const std::string& name) {
  return *xcv::functionals::FindFunctional(name);
}
const xcv::conditions::ConditionInfo& C(const std::string& id) {
  return *xcv::conditions::FindCondition(id);
}

std::vector<std::string> Keys(const std::vector<PoolPair>& pairs) {
  std::vector<std::string> keys;
  for (const PoolPair& p : pairs) keys.push_back(p.Key());
  return keys;
}

double BusySeconds(const std::vector<PairState>& pairs) {
  double busy = 0.0;
  for (const PairState& p : pairs) busy += p.seconds;
  return busy;
}

std::uint64_t SolverCalls(const std::vector<PairState>& pairs) {
  std::uint64_t calls = 0;
  for (const PairState& p : pairs) calls += p.report.solver_calls;
  return calls;
}

// The run-wide state of one invocation.
struct Run {
  const RunConfig& cfg;
  Outcome out;
  SpanRecorder rec;
  MetricSet e2e;
  MetricSet layer;
  std::vector<double> setup_s;
  std::vector<PoolPair> order;
  xcv::api::JobSpec spec;
  std::uint64_t next_trace_id = 1;

  explicit Run(const RunConfig& c) : cfg(c) { rec.SetEnabled(c.trace); }

  // Counts one attempted operation; any error makes it one failed op.
  void Record(const std::vector<std::string>& errors) {
    ++out.attempted;
    if (errors.empty()) return;
    ++out.failed;
    for (const std::string& e : errors)
      if (out.errors.size() < 50) out.errors.push_back(e);
  }
  void NewOp() { rec.SetTraceId(next_trace_id++); }

  // The set-up every workload shares: inputs from the seed, the pool's
  // specs through the determinism guard, a preflight encode of every pool
  // pair, and a small warm-up pass of the pool on
  // `warmup_threads` workers (starts the shared pool, pages in the solver,
  // builds every pair's engine once).
  void CommonSetup(int warmup_threads) {
    {
      Scope s(rec, "setup.inputs");
      order = PermutedPool(cfg.seed);
      PreflightPool(order);
      spec = PoolSpec("PBE,LYP,AM05", "EC1..EC7", CampaignThreads());
      GuardSpec(spec);
    }
    Scope s(rec, "setup.warmup");
    xcv::api::JobSpec warm = spec;
    warm.options.num_threads = warmup_threads;
    warm.options.verifier.num_threads = warmup_threads;
    warm.options.verifier.solver.max_nodes = kWarmupNodes;
    warm.options.verifier.split_threshold = kWarmupSplitThreshold;
    GuardSpec(warm);
    Campaign campaign(warm.options);
    for (const PoolPair& p : order)
      campaign.Add(F(p.functional), C(p.condition));
    if (campaign.Run().CompletedCount() != order.size())
      throw std::runtime_error("warm-up pass left pairs unfinished");
  }

  CampaignResult RunPool(xcv::cache::VerdictCache* cache, bool measure_phases,
                         double* run_seconds) {
    xcv::campaign::CampaignOptions options = spec.options;
    options.shared_cache = cache;
    options.verifier.solver.measure_phases = measure_phases;
    std::optional<Campaign> campaign;
    {
      Scope b(rec, "campaign.build");
      campaign.emplace(options);
      for (const PoolPair& p : order)
        campaign->Add(F(p.functional), C(p.condition));
    }
    Scope s(rec, "campaign.run");
    const double t0 = Now();
    CampaignResult result = campaign->Run();
    *run_seconds = Now() - t0;
    return result;
  }

  std::vector<std::string> Check(const std::vector<PairState>& pairs,
                                 int last_column) {
    Scope s(rec, "verify.check");
    return CheckReport(xcv::api::CsvReport(pairs), cfg.golden, last_column,
                       Keys(order));
  }

  // Times CheckpointToJson + WriteCheckpointFile of a final state.
  void CheckpointWrite(const std::vector<PairState>& pairs) {
    Scope s(rec, "checkpoint.write");
    const std::string path = cfg.work_dir + "/checkpoint.json";
    const double t0 = Now();
    const std::string json =
        xcv::campaign::CheckpointToJson(spec.options, pairs, false);
    xcv::campaign::WriteCheckpointFile(path, spec.options, pairs, false);
    layer["campaign.checkpoint_write_ms"] = (Now() - t0) * 1e3;
    layer["campaign.checkpoint_bytes"] = static_cast<double>(json.size());
    fs::remove(path);
  }

  // Solver / verifier / thread-pool / cache counters from registry deltas.
  void CounterLayers(const CounterSnapshot& d, double busy_s) {
    const double calls = d.Sum("xcv_solver_calls_total");
    const double timeouts =
        d.Sum("xcv_solver_calls_total", "result=\"timeout\"");
    layer["verifier.solver_calls"] = calls;
    layer["verifier.solver_timeouts"] = timeouts;
    layer["verifier.timeout_frac"] = Ratio(timeouts, calls);
    layer["verifier.busy_s"] = busy_s;
    layer["solver.nodes"] = d.Sum("xcv_solver_nodes_total");
    layer["solver.contractions"] = d.Sum("xcv_solver_contractions_total");
    layer["solver.prunes"] = d.Sum("xcv_solver_prunes_total");
    layer["solver.nodes_per_busy_s"] =
        Ratio(d.Sum("xcv_solver_nodes_total"), busy_s);
    layer["thread_pool.tasks"] = d.Sum("xcv_scheduler_tasks_total");
    layer["thread_pool.steals"] = d.Sum("xcv_scheduler_steals_total");
    layer["thread_pool.wait_s"] = d.Sum("xcv_scheduler_task_wait_seconds_sum");
    const double hits = d.Sum("xcv_cache_lookups_total", "outcome=\"hit\"");
    layer["cache.hits"] = hits;
    layer["cache.misses"] =
        d.Sum("xcv_cache_lookups_total", "outcome=\"miss\"");
    layer["cache.rejected"] =
        d.Sum("xcv_cache_lookups_total", "outcome=\"rejected\"");
    layer["cache.revalidations"] = d.Sum("xcv_cache_revalidations_total");
    layer["cache.hit_rate"] = Ratio(hits, d.Sum("xcv_cache_lookups_total"));
  }

  // In a traced run: the phase before the traced part runs the same ops
  // with the recorder off, as the reference for the tracing overhead.
  template <typename Op>
  void Reference(int ops, std::vector<double>* walls, Op op) {
    if (!cfg.trace) return;
    Scope s(rec, "reference");
    rec.SetEnabled(false);
    for (int i = 0; i < ops; ++i) walls->push_back(op(false));
    rec.SetEnabled(true);
  }

  void Finish(int root) {
    rec.End(root);
    if (!cfg.trace) {
      e2e["setup_s"] = Median(setup_s);
      e2e["peak_rss_mb"] = PeakRssMb();
      out.samples["setup_s"] = setup_s.size();
      out.metrics = e2e.Finish(EndToEndCatalog());
      return;
    }
    // The traced wall is the root span less the reference phase, which ran
    // with the recorder off. Only layer spans (named "layer.operation")
    // count as attributed; the self time of the grouping spans (bench,
    // setup, op, epoch) is glue between layers and stays unattributed.
    const SpanRecorder::Span& r =
        rec.spans().at(static_cast<std::size_t>(root));
    out.self_times = rec.SelfTimes();
    out.traced_wall_s = r.end - r.start;
    for (const SpanRecorder::Span& span : rec.spans())
      if (span.name == "reference") out.traced_wall_s -= span.end - span.start;
    out.self_times.erase("reference");
    for (const auto& [name, self] : out.self_times)
      if (IsLayerSpan(name)) out.attributed_s += self;
    layer["obs.attributed_frac"] = Ratio(out.attributed_s, out.traced_wall_s);
    out.metrics = layer.Finish(PerLayerCatalog());
    const std::string json = rec.ChromeJson();
    xcv::json::ParseJson(json);  // the trace must parse
    std::FILE* f = std::fopen(cfg.trace_path.c_str(), "wb");
    const bool written =
        f != nullptr &&
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if ((f != nullptr && std::fclose(f) != 0) || !written)
      throw std::runtime_error("cannot write " + cfg.trace_path);
  }
};

double MsQuantile(Outcome& out, const std::string& name,
                  const std::vector<double>& seconds, double p) {
  const Quantile q = Percentile(seconds, p);
  out.samples[name] = q.n;
  return q.value * 1e3;
}

// ---- cold-matrix ------------------------------------------------------------

void ColdMatrix(Run& run) {
  const RunConfig& cfg = run.cfg;
  for (int k = 0; k < kSetupRepeats; ++k) {
    Scope s(run.rec, "setup");
    const double t0 = Now();
    run.CommonSetup(CampaignThreads());
    run.setup_s.push_back(Now() - t0);
  }
  std::uint64_t pass = 0;
  auto op = [&](bool phases, double* busy, std::vector<PairState>* last) {
    run.NewOp();
    Scope s(run.rec, "op");
    run.order = PermutedPool(cfg.seed, pass++);
    double wall = 0.0;
    CampaignResult r = run.RunPool(nullptr, phases, &wall);
    run.Record(run.Check(r.pairs, kColdLastColumn));
    *busy += BusySeconds(r.pairs);
    if (last) *last = std::move(r.pairs);
    return wall;
  };

  // The reference passes use the same pair orders as the first measured
  // passes, so the overhead compares like with like.
  std::vector<double> reference;
  double ref_busy = 0.0;
  run.Reference(kColdMinOps, &reference, [&](bool) {
    return op(false, &ref_busy, nullptr);
  });
  pass = 0;

  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<double> walls;
  std::vector<PairState> last;
  double busy = 0.0;
  const double start = Now();
  while (static_cast<int>(walls.size()) < kColdMinOps ||
         Now() - start < cfg.seconds)
    walls.push_back(op(cfg.trace, &busy, &last));
  const CounterSnapshot delta = CounterSnapshot::Take().Minus(before);

  // The op is one pass: a user's request for the whole matrix. So here
  // latency_p50_ms is pass_s in ms, one quantity reported under both names.
  run.e2e["pass_s"] = Median(walls);
  run.e2e["latency_p50_ms"] = MsQuantile(run.out, "latency_ms", walls, 50.0);
  run.layer["op.latency_p90_ms"] = Percentile(walls, 90.0).value * 1e3;
  run.out.samples["pass_s"] = walls.size();
  run.out.aliases = {{"matrix_s", Median(walls), "s"}};

  double total_run = 0.0;
  for (double w : walls) total_run += w;
  run.layer["campaign.run_s"] = Median(walls);
  run.layer["campaign.pairs"] = static_cast<double>(run.order.size());
  run.CounterLayers(delta, busy);
  run.layer["thread_pool.parallel_eff"] =
      Ratio(busy, total_run * CampaignThreads());
  if (cfg.trace) {
    const double classify =
        delta.Sum("xcv_solver_phase_seconds_total", "phase=\"classify\"");
    const double contract =
        delta.Sum("xcv_solver_phase_seconds_total", "phase=\"contract\"");
    run.layer["solver.classify_s"] = classify;
    run.layer["solver.contract_s"] = contract;
    run.layer["solver.unattributed_s"] = busy - classify - contract;
    const std::vector<double> same_orders(walls.begin(),
                                          walls.begin() + kColdMinOps);
    run.layer["obs.trace_overhead_frac"] =
        Median(same_orders) / Median(reference) - 1.0;
  }
  run.CheckpointWrite(last);
}

// ---- warm-replay ------------------------------------------------------------

void WarmReplay(Run& run) {
  const RunConfig& cfg = run.cfg;
  const std::string cache_path = cfg.work_dir + "/replay-cache.json";
  std::vector<double> save_ms;
  std::size_t entries = 0;
  for (int k = 0; k < kReplaySetupRepeats; ++k) {
    Scope s(run.rec, "setup");
    const double t0 = Now();
    run.CommonSetup(CampaignThreads());
    xcv::cache::VerdictCache cache;
    double wall = 0.0;
    CampaignResult cold;
    {
      Scope c(run.rec, "setup.cold_pass");
      cold = run.RunPool(&cache, false, &wall);
    }
    const std::vector<std::string> errors =
        run.Check(cold.pairs, kColdLastColumn);
    if (!errors.empty())
      throw std::runtime_error("set-up cold pass: " + errors.front());
    {
      Scope c(run.rec, "cache.save");
      const double s0 = Now();
      cache.Save(cache_path);
      save_ms.push_back((Now() - s0) * 1e3);
    }
    entries = cache.size();
    run.setup_s.push_back(Now() - t0);
  }

  double load_total = 0.0;
  std::vector<double> run_ms;
  std::vector<PairState> last;
  auto op = [&](bool) {
    run.NewOp();
    Scope s(run.rec, "op");
    std::vector<PairState> pairs;
    const double t0 = Now();
    {
      xcv::cache::VerdictCache cache;
      xcv::cache::CacheLoadStats stats;
      {
        Scope l(run.rec, "cache.load");
        cache.Load(cache_path, &stats);
      }
      const double loaded = Now();
      load_total += loaded - t0;
      if (!stats.clean) {
        run.Record({"replay cache did not load clean: " + stats.detail});
        return Now() - t0;
      }
      double wall = 0.0;
      pairs = run.RunPool(&cache, false, &wall).pairs;
      run_ms.push_back(wall * 1e3);
    }
    const double op_s = Now() - t0;
    std::vector<std::string> errors = run.Check(pairs, kCachedLastColumn);
    std::uint64_t hits = 0, lookups = 0;
    for (const PairState& p : pairs) {
      hits += p.report.cache_hits;
      lookups += p.report.cache_hits + p.report.cache_misses +
                 p.report.cache_rejected;
    }
    if (SolverCalls(pairs) != 0)
      errors.push_back("replay ran " + std::to_string(SolverCalls(pairs)) +
                       " solver calls");
    if (lookups == 0 || hits != lookups)
      errors.push_back("replay hit rate " + std::to_string(hits) + "/" +
                       std::to_string(lookups));
    run.Record(errors);
    last = std::move(pairs);
    return op_s;
  };

  std::vector<double> reference;
  run.Reference(kReplayMinOps, &reference, op);

  load_total = 0.0;
  run_ms.clear();
  const CounterSnapshot before = CounterSnapshot::Take();
  std::vector<double> ops;
  const double start = Now();
  while (static_cast<int>(ops.size()) < kReplayMinOps ||
         Now() - start < cfg.seconds)
    ops.push_back(op(true));
  const CounterSnapshot delta = CounterSnapshot::Take().Minus(before);

  const double run_median_s = Median(run_ms) / 1e3;
  run.e2e["pass_s"] = run_median_s;
  run.e2e["latency_p50_ms"] = MsQuantile(run.out, "latency_ms", ops, 50.0);
  run.layer["op.latency_p90_ms"] = Percentile(ops, 90.0).value * 1e3;
  run.out.samples["pass_s"] = run_ms.size();
  run.out.aliases = {{"replay_p50_ms", run.e2e["latency_p50_ms"], "ms"},
                     {"replay_p90_ms", run.layer["op.latency_p90_ms"], "ms"}};

  double total_run_s = 0.0;
  for (double ms : run_ms) total_run_s += ms / 1e3;
  run.layer["campaign.run_s"] = run_median_s;
  run.layer["campaign.pairs"] = static_cast<double>(run.order.size());
  run.CounterLayers(delta, BusySeconds(last) * static_cast<double>(ops.size()));
  run.layer["thread_pool.parallel_eff"] =
      Ratio(run.layer["verifier.busy_s"], total_run_s * CampaignThreads());
  run.layer["cache.load_ms"] =
      load_total / static_cast<double>(ops.size()) * 1e3;
  run.layer["cache.replay_run_ms"] = Median(run_ms);
  run.layer["cache.entries"] = static_cast<double>(entries);
  run.layer["cache.file_bytes"] = static_cast<double>(FileBytes(cache_path));
  run.layer["cache.save_ms"] = Median(save_ms);
  if (cfg.trace)
    run.layer["obs.trace_overhead_frac"] =
        Median(ops) / Median(reference) - 1.0;
  run.CheckpointWrite(last);
  fs::remove(cache_path);
}

// ---- service-mixed ----------------------------------------------------------

struct Fetched {
  bool ok = false;
  int status = 0;
  std::string body;
};

Fetched Fetch(int port, const std::string& method, const std::string& target,
              const std::string& body = "") {
  Fetched f;
  try {
    const xcv::service::HttpResponse r =
        xcv::service::HttpFetch(port, method, target, body);
    f.status = r.status;
    f.body = r.body;
    f.ok = r.status >= 200 && r.status < 300;
  } catch (const std::exception& e) {
    f.body = e.what();
  }
  return f;
}

struct ServiceTotals {
  std::vector<double> probe_s;  // from due time; +inf when failed
  std::map<std::string, std::vector<double>> route_s;
  std::vector<double> late_s;
  std::vector<double> turnaround_s;
  std::vector<double> makespan_s;
  double busy_s = 0.0;
  double pairs = 0.0;
  double client_errors = 0.0;
  std::uint64_t state_bytes = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t trace_bytes = 0;
};

// A file's identity: inode and modification time, or zeros while it does
// not exist. A save through a temporary file and a rename gives the path a
// new inode, created while the old one still existed, so every save shows
// as a new identity.
struct FileId {
  std::uint64_t inode = 0;
  std::int64_t mtime_ns = 0;
  bool operator==(const FileId&) const = default;
};

FileId FileIdOf(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return {};
  return {static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec};
}

class Service {
 public:
  // Starts a daemon on a fresh state dir, then runs a small job to
  // completion: job probes have a target from the first probe on, and every
  // report probe fetches this job's report, so each report probe does the
  // same work.
  Service(Run& run, std::string dir, bool job_traces) : run_(run), dir_(dir) {
    {
      Scope s(run_.rec, "service.start");
      fs::remove_all(dir_);
      fs::create_directories(dir_);
      xcv::service::DaemonOptions o;
      o.state_dir = dir_;
      o.port = 0;
      o.max_concurrent_jobs = kServiceMaxJobs;
      o.job_traces = job_traces;
      daemon_ = std::make_unique<xcv::service::Daemon>(o);
      daemon_->Start();
      port_ = daemon_->port();
    }
    Scope s(run_.rec, "service.primer");
    const ServiceJob primer{"AM05", {"EC1", "EC6"}, -1, 0.0};
    const FileId cache_before = CacheFileId();
    const std::string id = Submit(primer, "primer");
    for (;;) {
      const std::string status = Status(id);
      if (status == "done") break;
      if (status != "queued" && status != "running")
        throw std::runtime_error("primer job ended " + status);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const std::vector<std::string> errors = CheckJob(primer, id);
    if (!errors.empty()) throw std::runtime_error("primer: " + errors.front());
    WaitForCacheSave(cache_before);
    primer_ = id;
  }

  ~Service() {
    Scope s(run_.rec, "service.stop");
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // Mean round trip, in seconds, of the probe mix sent back to back to the
  // idle daemon: the accept thread's service time per probe.
  double Calibrate(const std::vector<std::string>& routes) {
    Scope s(run_.rec, "http.calibrate");
    double total = 0.0;
    for (std::size_t k = 0; k < kCalibrationProbes; ++k) {
      const double t0 = Now();
      const Fetched f = Fetch(port_, "GET", ProbeTarget(routes[k], ""));
      if (!f.ok) throw std::runtime_error("calibration probe failed: " + f.body);
      total += Now() - t0;
    }
    return total / static_cast<double>(kCalibrationProbes);
  }

  // One pass of the seeded stream: the tenants' jobs one at a time in a
  // closed loop, plus the open-loop probes, due every `probe_period_s`,
  // until the last job's report is fetched.
  void Epoch(const ServiceStream& stream,
             const std::vector<std::string>& routes, double probe_period_s,
             ServiceTotals& t);

  // Stops the daemon (journal + cache saved) and measures its state dir.
  void Finish(ServiceTotals& t) {
    Scope s(run_.rec, "service.stop");
    t.cache_entries = daemon_->CacheSize();
    daemon_->Stop();
    t.state_bytes += TreeBytes(dir_);
    t.cache_bytes = FileBytes(dir_ + "/cache.json");
    t.trace_bytes += TreeBytes(dir_, "trace-");
  }

 private:
  // A probe's target; job probes ask for `job_id`, or the primer before a
  // tenant has a job.
  std::string ProbeTarget(const std::string& route,
                          const std::string& job_id) const {
    if (route == "job")
      return "/v1/campaigns/" + (job_id.empty() ? primer_ : job_id);
    if (route == "list") return "/v1/campaigns";
    if (route == "metrics") return "/v1/metrics";
    if (route == "report")
      return "/v1/campaigns/" + primer_ + "/report?format=csv";
    return "/v1/healthz";
  }

  FileId CacheFileId() const { return FileIdOf(dir_ + "/cache.json"); }

  // Blocks until the daemon has replaced its cache file, last seen as
  // `before`.
  void WaitForCacheSave(const FileId& before) const {
    const double start = Now();
    while (CacheFileId() == before) {
      if (Now() - start > kCacheSaveTimeoutS)
        throw std::runtime_error("the daemon did not save its cache");
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kSavePollPeriodS));
    }
  }

  std::string Submit(const ServiceJob& job, const std::string& tenant,
                     std::vector<double>* submit_s = nullptr) {
    Scope s(run_.rec, "http.submit");
    xcv::api::JobSpec spec =
        PoolSpec(job.functional, job.ConditionList(), kServiceJobThreads);
    spec.tenant = tenant;
    GuardSpec(spec);
    const std::string body = xcv::api::WriteJobSpecJson(spec);
    const double t0 = Now();
    const Fetched f = Fetch(port_, "POST", "/v1/campaigns", body);
    if (submit_s) submit_s->push_back(f.ok ? Now() - t0 : kInf);
    if (!f.ok) throw std::runtime_error("submit failed: " + f.body);
    return xcv::json::ParseJson(f.body).At("id").AsString();
  }

  std::string Status(const std::string& id) {
    Scope s(run_.rec, "http.poll");
    const Fetched f = Fetch(port_, "GET", "/v1/campaigns/" + id);
    if (!f.ok) return "unreachable";
    return xcv::json::ParseJson(f.body).At("status").AsString();
  }

  std::vector<std::string> CheckJob(const ServiceJob& job,
                                    const std::string& id) {
    Fetched f;
    {
      Scope s(run_.rec, "http.report_fetch");
      f = Fetch(port_, "GET", "/v1/campaigns/" + id + "/report?format=csv");
    }
    if (!f.ok) return {"job " + id + ": report fetch failed: " + f.body};
    Scope s(run_.rec, "verify.check");
    std::vector<std::string> keys;
    for (const std::string& c : job.conditions)
      keys.push_back(job.functional + "," + c);
    report_ = f.body;
    return CheckReport(f.body, run_.cfg.golden, kCachedLastColumn, keys);
  }

  Run& run_;
  std::string dir_;
  std::unique_ptr<xcv::service::Daemon> daemon_;
  int port_ = 0;
  std::string primer_;
  std::string report_;  // the last checked report
};

void Service::Epoch(const ServiceStream& stream,
                    const std::vector<std::string>& routes,
                    double probe_period_s, ServiceTotals& t) {
  // The two tenants' jobs, alternating: t0's first, t1's first, t0's
  // second, ...
  std::vector<std::pair<int, const ServiceJob*>> jobs;
  for (std::size_t n = 0;; ++n) {
    const std::size_t before = jobs.size();
    for (int i = 0; i < kTenants; ++i)
      if (n < stream.tenant[i].size()) jobs.push_back({i, &stream.tenant[i][n]});
    if (jobs.size() == before) break;
  }
  // The one job in flight. Once it has ended and its report is checked,
  // the client polls the cache file until the daemon has saved it, then
  // submits the next job.
  std::size_t next = 0;
  std::string id;
  double submitted = 0.0;
  double finished = 0.0;
  bool saving = false;
  FileId cache_before;
  double next_poll = kInf;
  auto submit_next = [&] {
    if (next >= jobs.size()) {
      next_poll = kInf;
      return;
    }
    run_.NewOp();
    cache_before = CacheFileId();
    saving = false;
    submitted = Now();
    id = Submit(*jobs[next].second, "t" + std::to_string(jobs[next].first),
                &t.route_s["submit"]);
    next_poll = Now() + kPollPeriodS;
  };
  const double first_submit = Now();
  submit_next();
  double last_report = first_submit;
  std::size_t k = 0;
  while (next_poll < kInf) {
    const double probe_due =
        first_submit + static_cast<double>(k) * probe_period_s;
    const bool probe = probe_due <= next_poll;
    const double due = probe ? probe_due : next_poll;
    if (Now() < due) {
      Scope s(run_.rec, "client.wait");
      std::this_thread::sleep_for(std::chrono::duration<double>(due - Now()));
    }
    if (probe) {
      const std::string& route = routes[k % routes.size()];
      ++k;
      const std::string target = ProbeTarget(route, id);
      const double sent = Now();
      Fetched f;
      {
        Scope s(run_.rec, "http." + route);
        f = Fetch(port_, "GET", target);
      }
      const double latency = f.ok ? Now() - due : kInf;
      if (f.ok) {
        run_.Record({});
      } else {
        run_.Record({"probe " + target + " failed: " + f.body});
        t.client_errors += 1.0;
      }
      t.probe_s.push_back(latency);
      t.route_s[route].push_back(latency);
      t.late_s.push_back(sent - due);
      continue;
    }
    if (saving) {
      if (CacheFileId() == cache_before) {
        if (Now() - finished > kCacheSaveTimeoutS)
          throw std::runtime_error("job " + id +
                                   ": the daemon did not save its cache");
        next_poll = Now() + kSavePollPeriodS;
        continue;
      }
      ++next;
      submit_next();
      continue;
    }
    const std::string status = Status(id);
    if (status == "queued" || status == "running") {
      next_poll = Now() + kPollPeriodS;
      continue;
    }
    const ServiceJob& job = *jobs[next].second;
    std::vector<std::string> errors;
    if (status == "done") {
      errors = CheckJob(job, id);
      last_report = Now();
      t.turnaround_s.push_back(last_report - submitted);
      t.pairs += static_cast<double>(job.conditions.size());
      // Column 17 (seconds) is the pair's busy time.
      std::istringstream in(report_);
      std::string line;
      while (std::getline(in, line))
        if (line.rfind("functional,", 0) != 0 && !line.empty())
          t.busy_s += std::strtod(line.c_str() + line.rfind(',') + 1, nullptr);
    } else {
      errors.push_back("job " + id + " (" + job.functional + " x " +
                       job.ConditionList() + ") ended " + status);
    }
    run_.Record(errors);
    // The daemon saves its cache after every job, whatever its end.
    saving = true;
    finished = Now();
    next_poll = finished;
  }
  t.makespan_s.push_back(last_report - first_submit);
}

void ServiceMixed(Run& run) {
  const RunConfig& cfg = run.cfg;
  const std::vector<std::string> routes =
      MakeProbeRoutes(cfg.seed, kProbeRoutesLength);
  const std::string dir = cfg.work_dir + "/xcvd-state";

  std::vector<double> round_trip_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    Scope s(run.rec, "setup");
    const double t0 = Now();
    run.CommonSetup(kServiceJobThreads);
    {
      Service service(run, dir, /*job_traces=*/false);
      round_trip_s.push_back(service.Calibrate(routes));
    }
    run.setup_s.push_back(Now() - t0);
  }
  const double probe_period_s = Median(round_trip_s) / kProbeLoad;

  // Each epoch gets a fresh daemon on a fresh state dir, so its cold jobs
  // are cold. Like a cold pass, each epoch draws its own job order from the
  // seed, and a run reports the median over orders. Traced epochs turn
  // per-job traces on, as xcvd ships.
  std::uint64_t index = 0;
  auto epoch = [&](bool job_traces, ServiceTotals& t) {
    const ServiceStream stream =
        MakeServiceStream(cfg.seed, cfg.golden, index++);
    Service service(run, dir, job_traces);
    {
      Scope s(run.rec, "epoch");
      service.Epoch(stream, routes, probe_period_s, t);
    }
    service.Finish(t);
  };

  // The reference epochs draw the same orders as the first measured ones.
  ServiceTotals reference;
  std::vector<double> unused;
  run.Reference(kServiceMinEpochs, &unused, [&](bool) {
    epoch(/*job_traces=*/false, reference);
    return 0.0;
  });
  index = 0;

  ServiceTotals t;
  const CounterSnapshot before = CounterSnapshot::Take();
  const double start = Now();
  while (static_cast<int>(t.makespan_s.size()) < kServiceMinEpochs ||
         Now() - start < cfg.seconds)
    epoch(cfg.trace, t);
  const CounterSnapshot delta = CounterSnapshot::Take().Minus(before);

  // The op is one epoch: the batch of both tenants' jobs. So here
  // latency_p50_ms is pass_s in ms. The probes' HTTP latency is reported
  // but not gated: on a VM that shares its machine it is mostly the cost of
  // waking idle CPUs, which the machine's other load moves by 1.7x.
  run.e2e["pass_s"] = Median(t.makespan_s);
  run.e2e["latency_p50_ms"] =
      MsQuantile(run.out, "latency_ms", t.makespan_s, 50.0);
  run.layer["op.latency_p90_ms"] =
      Percentile(t.makespan_s, 90.0).value * 1e3;
  const double http_p50 = MsQuantile(run.out, "http_ms", t.probe_s, 50.0);
  const double http_p90 = Percentile(t.probe_s, 90.0).value * 1e3;
  const double turnaround = Percentile(t.turnaround_s, 50.0).value;
  run.out.samples["pass_s"] = t.makespan_s.size();
  run.out.samples["job_turnaround_s"] = t.turnaround_s.size();
  run.out.aliases = {
      {"http_p50_ms", http_p50, "ms"},
      {"http_p90_ms", http_p90, "ms"},
      {"job_turnaround_p50_s", turnaround, "s"},
      {"service_makespan_s", run.e2e["pass_s"], "s"},
      {"probe_period_ms", probe_period_s * 1e3, "ms"}};
  run.layer["service.http_p50_ms"] = http_p50;
  run.layer["service.http_p90_ms"] = http_p90;
  run.layer["service.job_turnaround_p50_s"] = turnaround;
  run.layer["service.probe_period_ms"] = probe_period_s * 1e3;

  run.layer["campaign.pairs"] = t.pairs;
  run.CounterLayers(delta, t.busy_s);
  double makespan_total = 0.0;
  for (double m : t.makespan_s) makespan_total += m;
  run.layer["thread_pool.parallel_eff"] =
      Ratio(t.busy_s, makespan_total * kServiceMaxJobs * kServiceJobThreads);
  run.layer["cache.entries"] = static_cast<double>(t.cache_entries);
  run.layer["cache.file_bytes"] = static_cast<double>(t.cache_bytes);
  for (const std::string& r : kProbeRoutes)
    run.layer["service.http_p50_ms." + r] =
        Percentile(t.route_s[r], 50.0).value * 1e3;
  run.layer["service.requests"] = delta.Sum("xcv_http_requests_total");
  run.layer["service.errors"] =
      delta.Sum("xcv_http_requests_total", "code=\"4") +
      delta.Sum("xcv_http_requests_total", "code=\"5") + t.client_errors;
  run.layer["service.admission_wait_s"] =
      delta.Sum("xcv_daemon_admission_wait_seconds_sum");
  run.layer["service.state_bytes"] = static_cast<double>(t.state_bytes) /
                                     static_cast<double>(t.makespan_s.size());
  run.layer["service.gen_late_p90_ms"] = Percentile(t.late_s, 90.0).value * 1e3;
  if (cfg.trace) {
    const std::vector<double> same_orders(
        t.makespan_s.begin(), t.makespan_s.begin() + kServiceMinEpochs);
    run.layer["obs.trace_overhead_frac"] =
        Median(same_orders) / Median(reference.makespan_s) - 1.0;
    run.layer["obs.job_trace_bytes"] = static_cast<double>(t.trace_bytes);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"cold-matrix", "warm-replay",
                                                  "service-mixed"};
  return kNames;
}

Outcome RunWorkload(const RunConfig& config) {
  Run run(config);
  fs::create_directories(config.work_dir);
  const int root = run.rec.Begin("bench");
  if (config.workload == "cold-matrix")
    ColdMatrix(run);
  else if (config.workload == "warm-replay")
    WarmReplay(run);
  else if (config.workload == "service-mixed")
    ServiceMixed(run);
  else
    throw std::runtime_error("unknown workload " + config.workload);
  run.Finish(root);
  return std::move(run.out);
}

std::string RegenerateGolden() {
  xcv::api::JobSpec spec = PoolSpec("PBE,LYP,AM05", "EC1..EC7", 1);
  GuardSpec(spec);
  Campaign campaign(spec.options);
  for (const PoolPair& p : Pool())
    campaign.Add(F(p.functional), C(p.condition));
  return GoldenFileText(campaign.Run().pairs);
}

}  // namespace xcvb
