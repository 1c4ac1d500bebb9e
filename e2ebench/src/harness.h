// Shared pieces of the end-to-end benchmark: statistics, seeded input
// generation, registry counter deltas, the harness's own span recorder, the
// golden verdict check, and the host fingerprint.
//
// Everything here talks to xcverifier through its public headers only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/job_spec.h"
#include "campaign/campaign.h"

namespace xcvb {

/// Monotonic seconds since the first call in this process.
double Now();

// ---- Statistics -------------------------------------------------------------

/// One percentile of a sample set, with the counts a reader needs to judge
/// it: how many samples there were and how many lie strictly above it.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Linear-interpolation percentile (p in [0, 100]); value 0 and n 0 for an
/// empty set. Infinite samples (failed requests) sort last.
Quantile Percentile(std::vector<double> samples, double p);
double Median(const std::vector<double>& samples);

// ---- Deterministic generation -----------------------------------------------

/// splitmix64: the same seed gives the same sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n); n must be positive.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(Below(i))]);
  }

 private:
  std::uint64_t state_;
};

// ---- The pair pool ----------------------------------------------------------

/// One (functional, condition) pair of the pool, by registry names.
struct PoolPair {
  std::string functional;
  std::string condition;
  std::string Key() const { return functional + "," + condition; }
};

/// {PBE, LYP, AM05} x {EC1..EC7}, applicable pairs only, in functional-major
/// paper order (19 pairs).
std::vector<PoolPair> Pool();

/// The pool pairs in a seeded order (the order a campaign enqueues them);
/// `index` picks one of a sequence of orders drawn from the same seed.
std::vector<PoolPair> PermutedPool(std::uint64_t seed, std::uint64_t index = 0);

/// The pool's solver settings with no wall-clock budget anywhere: per-pair
/// budget unlimited, per-call time budget 1e9 s, 1000 nodes, delta 1e-3,
/// split threshold 0.3125, default wave width.
xcv::api::JobSpec PoolSpec(const std::string& functionals,
                           const std::string& conditions, int threads);

/// Determinism guard: api::ValidateJobSpec, then refuses any spec whose
/// verdicts could depend on machine load. Throws std::runtime_error.
void GuardSpec(const xcv::api::JobSpec& spec);

/// Encodes every pool pair's condition (conditions::BuildCondition), so a
/// pair that stopped being applicable or stopped encoding fails set-up.
void PreflightPool(const std::vector<PoolPair>& pool);

// ---- Golden verdicts --------------------------------------------------------

/// CSV report columns 3..13 (applicable .. solver_timeouts) of one pair,
/// plus a relative cost hint used only to deal service jobs.
struct GoldenRow {
  std::vector<std::string> cols;  // cols[0] is CSV column 3
  double cost_s = 0.0;
};
using Golden = std::map<std::string, GoldenRow>;  // keyed by "F,EC"

/// Column numbers (1-based, as in the CSV report) the checks compare up to.
inline constexpr int kColdLastColumn = 13;
inline constexpr int kCachedLastColumn = 11;

Golden LoadGolden(const std::string& path);

/// The golden file for a cold, cache-less campaign result.
std::string GoldenFileText(const std::vector<xcv::campaign::PairState>& pairs);

/// Compares columns 3..last_column of every row of a CSV report with the
/// golden rows; every pair in `expected` must appear exactly once. Returns
/// one message per mismatch, each naming the pair.
std::vector<std::string> CheckReport(const std::string& csv,
                                     const Golden& golden, int last_column,
                                     const std::vector<std::string>& expected);

// ---- Service job stream and probe schedule ----------------------------------

struct ServiceJob {
  std::string functional;
  std::vector<std::string> conditions;
  /// Index (in this tenant's stream) of the earlier job this one repeats;
  /// -1 for a job whose pairs nothing has run yet.
  int repeat_of = -1;
  double cost_s = 0.0;
  std::string ConditionList() const;
};

inline constexpr int kTenants = 2;

/// A pool pair whose golden cost exceeds this share of the pool's total
/// stays out of the service stream. That leaves out PBE x EC3 and LYP x EC3,
/// 57% of the pool's busy time between them: one pair cannot be split
/// across jobs, so with them an epoch lasted about 17 s and a run held only
/// two. The solver hot path they load is cold-matrix's to measure.
inline constexpr double kServicePairCostShareCap = 0.15;

/// The pool pairs the service stream draws its jobs from, in pool order.
std::vector<PoolPair> ServicePool(const Golden& golden);

struct ServiceStream {
  std::vector<ServiceJob> tenant[kTenants];
};

/// Cuts the service pool into jobs of one functional x 2-3 conditions (dealt by
/// golden cost so job sizes are seed-independent), deals the jobs to the two
/// tenants by cost, starts each tenant with its heaviest job, then lets the
/// seed order the rest and choose which earlier job each repeat re-runs.
/// `index` picks one of a sequence of streams drawn from the same seed.
ServiceStream MakeServiceStream(std::uint64_t seed, const Golden& golden,
                                std::uint64_t index = 0);

/// The probe routes in send order: each block of five is a seeded
/// permutation of healthz, job, list, metrics, report.
std::vector<std::string> MakeProbeRoutes(std::uint64_t seed, std::size_t count);

/// Canonical text of a stream (the self-test compares these byte for byte).
std::string DescribeStream(const ServiceStream& stream);

// ---- Registry counter deltas ------------------------------------------------

/// A parsed snapshot of obs::Registry::Global() (its Prometheus rendering):
/// every sample line, keyed by series ("name{labels}").
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  static CounterSnapshot Parse(const std::string& exposition);

  /// Sum of the series of `name` whose label text contains `label_filter`
  /// (empty matches all).
  double Sum(const std::string& name,
             const std::string& label_filter = "") const;
  /// This snapshot minus an earlier one: only what happened in between.
  CounterSnapshot Minus(const CounterSnapshot& earlier) const;

 private:
  std::map<std::string, double> series_;
};

// ---- The harness's own spans ------------------------------------------------

/// In-memory span recorder for the harness's own layer boundaries (the
/// program's per-wave tracer stays disarmed). Single-threaded: spans nest on
/// one stack. Disabled recorders record nothing.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t trace_id = 0;
  };

  void SetEnabled(bool on) { enabled_ = on; }
  /// Spans opened after this call carry `id` (one id per op).
  void SetTraceId(std::uint64_t id) { trace_id_ = id; }

  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration minus the part covered by child spans.
  std::map<std::string, double> SelfTimes() const;
  /// Chrome trace_event JSON of every span.
  std::string ChromeJson() const;

 private:
  bool enabled_ = false;
  std::uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Layer spans are named "layer.operation" (campaign.run, cache.load,
/// http.job, ...): only their self time counts as attributed. Spans with a
/// plain name (bench, setup, op, epoch, reference) group them.
bool IsLayerSpan(const std::string& name);

/// RAII span; a no-op when the recorder is disabled.
class Scope {
 public:
  Scope(SpanRecorder& rec, const std::string& name)
      : rec_(rec), index_(rec.Begin(name)) {}
  ~Scope() { rec_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

// ---- Host -------------------------------------------------------------------

/// CPU model, active SIMD tier, nproc, compiler, build type and commit as a
/// JSON object.
std::string FingerprintJson(const std::string& commit);
bool IsReleaseBuild();
double PeakRssMb();
int CampaignThreads();  // min(4, nproc)
std::uint64_t FileBytes(const std::string& path);
std::uint64_t TreeBytes(const std::string& dir, const std::string& prefix = "");
std::string ReadFile(const std::string& path);

}  // namespace xcvb
