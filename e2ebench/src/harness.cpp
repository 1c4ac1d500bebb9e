#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/render.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "obs/metrics.h"
#include "support/simd.h"

namespace xcvb {

double Now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- Statistics -------------------------------------------------------------

Quantile Percentile(std::vector<double> samples, double p) {
  Quantile q;
  q.n = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0)
    q.value = samples[lo];
  else if (std::isinf(samples[hi]))
    q.value = samples[hi];  // a failed sample is infinitely slow
  else
    q.value = samples[lo] + frac * (samples[hi] - samples[lo]);
  const auto above =
      std::upper_bound(samples.begin(), samples.end(), q.value);
  q.beyond = static_cast<std::size_t>(samples.end() - above);
  return q;
}

double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0).value;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- The pair pool ----------------------------------------------------------

namespace {

const char* const kPoolFunctionals[] = {"PBE", "LYP", "AM05"};

const xcv::functionals::Functional& FunctionalNamed(const std::string& name) {
  const auto* f = xcv::functionals::FindFunctional(name);
  if (f == nullptr) throw std::runtime_error("unknown functional " + name);
  return *f;
}

const xcv::conditions::ConditionInfo& ConditionNamed(const std::string& id) {
  const auto* c = xcv::conditions::FindCondition(id);
  if (c == nullptr) throw std::runtime_error("unknown condition " + id);
  return *c;
}

}  // namespace

std::vector<PoolPair> Pool() {
  std::vector<PoolPair> pool;
  for (const char* name : kPoolFunctionals) {
    const auto& f = FunctionalNamed(name);
    for (const auto& c : xcv::conditions::AllConditions())
      if (xcv::conditions::Applies(c, f)) pool.push_back({f.name, c.short_id});
  }
  return pool;
}

std::vector<PoolPair> PermutedPool(std::uint64_t seed, std::uint64_t index) {
  std::vector<PoolPair> pool = Pool();
  Rng rng(seed ^ 0x706f6f6cULL ^ (index * 0xd1b54a32d192ed03ULL));
  rng.Shuffle(pool);
  return pool;
}

xcv::api::JobSpec PoolSpec(const std::string& functionals,
                           const std::string& conditions, int threads) {
  xcv::api::JobSpec spec = xcv::api::DefaultJobSpec();
  spec.functionals = functionals;
  spec.conditions = conditions;
  spec.output = xcv::api::OutputMode::kCsv;
  spec.quiet = true;
  xcv::campaign::CampaignOptions& o = spec.options;
  o.num_threads = threads;
  o.verifier.num_threads = threads;
  o.verifier.split_threshold = 0.3125;
  o.verifier.total_time_budget_seconds =
      std::numeric_limits<double>::infinity();
  o.verifier.solver.max_nodes = 1000;
  o.verifier.solver.delta = 1e-3;
  o.verifier.solver.time_budget_seconds = 1e9;
  return spec;
}

void GuardSpec(const xcv::api::JobSpec& spec) {
  xcv::api::ValidateJobSpec(spec);
  const auto& v = spec.options.verifier;
  if (!std::isinf(v.total_time_budget_seconds))
    throw std::runtime_error(
        "determinism guard: the per-pair budget must be unlimited");
  if (!(v.solver.time_budget_seconds >= 1e9))
    throw std::runtime_error(
        "determinism guard: the per-call time budget must be at least 1e9 s");
}

void PreflightPool(const std::vector<PoolPair>& pool) {
  for (const PoolPair& p : pool) {
    const auto& f = FunctionalNamed(p.functional);
    const auto& c = ConditionNamed(p.condition);
    if (!xcv::conditions::Applies(c, f) ||
        !xcv::conditions::BuildCondition(c, f).has_value())
      throw std::runtime_error("pool pair " + p.Key() + " does not encode");
  }
}

// ---- Golden verdicts --------------------------------------------------------

namespace {

const char* const kCsvColumns[] = {
    "functional",         "condition",         "applicable",
    "done",               "verdict",           "verified_frac",
    "counterexample_frac", "inconclusive_frac", "timeout_frac",
    "leaves",             "witnesses",         "solver_calls",
    "solver_timeouts",    "cache_hits",        "cache_misses",
    "cache_rejected",     "seconds"};

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) out.push_back(field);
  return out;
}

// Data rows of a CSV document: no comments, no header, no blank lines.
std::vector<std::vector<std::string>> DataRows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line.rfind("functional,", 0) == 0)
      continue;
    rows.push_back(SplitFields(line));
  }
  return rows;
}

Golden ParseGolden(const std::string& text) {
  Golden golden;
  for (const auto& fields : DataRows(text)) {
    if (fields.size() != kColdLastColumn + 1)
      throw std::runtime_error("golden row has " +
                               std::to_string(fields.size()) + " fields");
    GoldenRow row;
    row.cols.assign(fields.begin() + 2, fields.begin() + kColdLastColumn);
    row.cost_s = std::stod(fields[kColdLastColumn]);
    golden[fields[0] + "," + fields[1]] = std::move(row);
  }
  if (golden.empty()) throw std::runtime_error("golden file has no rows");
  return golden;
}

}  // namespace

Golden LoadGolden(const std::string& path) {
  return ParseGolden(ReadFile(path));
}

std::string GoldenFileText(const std::vector<xcv::campaign::PairState>& pairs) {
  std::string out =
      "# Expected CSV report columns 1-13 of every pool pair (cold,\n"
      "# cache-less, 1-thread run; regenerate with\n"
      "# `python3 e2ebench/run.py --regen-golden`).\n"
      "# cost_s is that run's busy seconds: a hint for dealing service jobs,\n"
      "# never compared.\n";
  for (int c = 0; c < kColdLastColumn; ++c) {
    out += kCsvColumns[c];
    out += ',';
  }
  out += "cost_s\n";
  for (const auto& fields : DataRows(xcv::api::CsvReport(pairs))) {
    for (int c = 0; c < kColdLastColumn; ++c) out += fields.at(c) + ",";
    out += fields.at(16) + "\n";
  }
  return out;
}

std::vector<std::string> CheckReport(const std::string& csv,
                                     const Golden& golden, int last_column,
                                     const std::vector<std::string>& expected) {
  std::vector<std::string> errors;
  std::map<std::string, int> seen;
  for (const auto& fields : DataRows(csv)) {
    if (fields.size() < static_cast<std::size_t>(last_column)) {
      errors.push_back("short report row (" + std::to_string(fields.size()) +
                       " fields)");
      continue;
    }
    const std::string key = fields[0] + "," + fields[1];
    ++seen[key];
    const auto it = golden.find(key);
    if (std::find(expected.begin(), expected.end(), key) == expected.end() ||
        it == golden.end()) {
      errors.push_back(key + ": not expected in this report");
      continue;
    }
    for (int c = 3; c <= last_column; ++c) {
      const std::string& want = it->second.cols.at(c - 3);
      if (fields[c - 1] != want)
        errors.push_back(key + ": " + kCsvColumns[c - 1] + " is '" +
                         fields[c - 1] + "', golden '" + want + "'");
    }
  }
  for (const std::string& key : expected) {
    const int n = seen.count(key) ? seen[key] : 0;
    if (n != 1)
      errors.push_back(key + ": appears " + std::to_string(n) +
                       " times in the report");
  }
  return errors;
}

// ---- Service job stream and probe schedule ----------------------------------

std::string ServiceJob::ConditionList() const {
  std::string out;
  for (const std::string& c : conditions) out += (out.empty() ? "" : ",") + c;
  return out;
}

namespace {

double GoldenCost(const Golden& golden, const std::string& key) {
  const auto it = golden.find(key);
  return it == golden.end() ? 0.0 : it->second.cost_s;
}

}  // namespace

std::vector<PoolPair> ServicePool(const Golden& golden) {
  double total = 0.0;
  for (const PoolPair& p : Pool()) total += GoldenCost(golden, p.Key());
  std::vector<PoolPair> pairs;
  for (const PoolPair& p : Pool())
    if (GoldenCost(golden, p.Key()) <= kServicePairCostShareCap * total)
      pairs.push_back(p);
  return pairs;
}

ServiceStream MakeServiceStream(std::uint64_t seed, const Golden& golden,
                                std::uint64_t index) {
  auto cost = [&](const std::string& key) { return GoldenCost(golden, key); };
  // 1. Cut each functional's conditions into ceil(n/3) jobs of 2-3 pairs,
  //    longest-processing-time first, so job costs do not depend on the seed.
  const std::vector<PoolPair> pool = ServicePool(golden);
  std::vector<ServiceJob> jobs;
  for (const char* name : kPoolFunctionals) {
    std::vector<std::string> conds;
    for (const PoolPair& p : pool)
      if (p.functional == name) conds.push_back(p.condition);
    const std::size_t n = conds.size();
    if (n == 0) continue;
    const std::size_t k = (n + 2) / 3;
    std::vector<ServiceJob> groups(k);
    std::vector<std::size_t> capacity(k, n / k);
    for (std::size_t g = 0; g < n % k; ++g) ++capacity[g];
    std::stable_sort(conds.begin(), conds.end(),
                     [&](const std::string& a, const std::string& b) {
                       return cost(std::string(name) + "," + a) >
                              cost(std::string(name) + "," + b);
                     });
    for (const std::string& c : conds) {
      std::size_t best = k;
      for (std::size_t g = 0; g < k; ++g)
        if (groups[g].conditions.size() < capacity[g] &&
            (best == k || groups[g].cost_s < groups[best].cost_s))
          best = g;
      groups[best].functional = name;
      groups[best].conditions.push_back(c);
      groups[best].cost_s += cost(std::string(name) + "," + c);
    }
    for (ServiceJob& g : groups) jobs.push_back(std::move(g));
  }
  // 2. Deal jobs to the tenants by cost, so both tenants carry about
  //    the same work whatever the seed.
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const ServiceJob& a, const ServiceJob& b) {
                     return a.cost_s > b.cost_s;
                   });
  std::vector<ServiceJob> cold[kTenants];
  double load[kTenants] = {0.0, 0.0};
  for (ServiceJob& j : jobs) {
    const int t = load[1] < load[0] ? 1 : 0;
    load[t] += j.cost_s;
    cold[t].push_back(std::move(j));
  }
  // 3. Each tenant starts with its heaviest job, so an epoch ends on small
  //    jobs wherever the seed puts the rest; the seed orders the others.
  //    After every cold job but the first comes a repeat of one of that
  //    tenant's finished jobs.
  Rng rng(seed ^ 0x736572766963ULL ^ (index * 0xd1b54a32d192ed03ULL));
  ServiceStream stream;
  for (int t = 0; t < kTenants; ++t) {
    std::vector<ServiceJob> rest(cold[t].begin() + 1, cold[t].end());
    rng.Shuffle(rest);
    std::copy(rest.begin(), rest.end(), cold[t].begin() + 1);
    std::vector<int> cold_index;  // stream positions of cold jobs
    for (std::size_t i = 0; i < cold[t].size(); ++i) {
      cold_index.push_back(static_cast<int>(stream.tenant[t].size()));
      stream.tenant[t].push_back(cold[t][i]);
      if (i == 0) continue;
      const int of = cold_index[static_cast<std::size_t>(rng.Below(i + 1))];
      ServiceJob repeat = stream.tenant[t][static_cast<std::size_t>(of)];
      repeat.repeat_of = of;
      stream.tenant[t].push_back(std::move(repeat));
    }
  }
  return stream;
}

std::vector<std::string> MakeProbeRoutes(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<std::string> block = {"healthz", "job", "list", "metrics",
                                    "report"};
  Rng rng(seed ^ 0x70726f6265ULL);
  std::vector<std::string> routes;
  while (routes.size() < count) {
    rng.Shuffle(block);
    for (const std::string& r : block)
      if (routes.size() < count) routes.push_back(r);
  }
  return routes;
}

std::string DescribeStream(const ServiceStream& stream) {
  std::string out;
  for (int t = 0; t < kTenants; ++t)
    for (const ServiceJob& j : stream.tenant[t])
      out += "t" + std::to_string(t) + " " + j.functional + " " +
             j.ConditionList() + " repeat_of=" + std::to_string(j.repeat_of) +
             "\n";
  return out;
}

// ---- Registry counter deltas ------------------------------------------------

CounterSnapshot CounterSnapshot::Take() {
  return Parse(xcv::obs::Registry::Global().RenderPrometheus());
}

CounterSnapshot CounterSnapshot::Parse(const std::string& exposition) {
  CounterSnapshot snap;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    snap.series_[line.substr(0, space)] = std::strtod(
        line.c_str() + space + 1, nullptr);
  }
  return snap;
}

double CounterSnapshot::Sum(const std::string& name,
                            const std::string& label_filter) const {
  double total = 0.0;
  for (auto it = series_.lower_bound(name); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() != name.size() && key[name.size()] != '{') continue;
    if (!label_filter.empty() &&
        key.find(label_filter, name.size()) == std::string::npos)
      continue;
    total += it->second;
  }
  return total;
}

CounterSnapshot CounterSnapshot::Minus(const CounterSnapshot& earlier) const {
  CounterSnapshot out;
  for (const auto& [key, value] : series_) {
    const auto it = earlier.series_.find(key);
    out.series_[key] = value - (it == earlier.series_.end() ? 0.0 : it->second);
  }
  return out;
}

// ---- The harness's own spans ------------------------------------------------

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = Now();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.trace_id = trace_id_;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Now();
  // Spans close in LIFO order; tolerate a span opened while disabled.
  while (!stack_.empty() && stack_.back() >= index) stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfTimes() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
  return self;
}

bool IsLayerSpan(const std::string& name) {
  return name.find('.') != std::string::npos;
}

std::string SpanRecorder::ChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i ? ",\n" : "\n";
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"e2ebench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":%llu,"
                  "\"parent\":%d}}",
                  s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.trace_id), s.parent);
    out += "{\"name\":\"" + s.name + "\"" + buf;
  }
  out += "\n]}\n";
  return out;
}

// ---- Host -------------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string FingerprintJson(const std::string& commit) {
  return "{\"cpu\": " + JsonString(CpuModel()) + ", \"simd_tier\": " +
         JsonString(xcv::simd::TierName(xcv::simd::ActiveTier())) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(XCVB_COMPILER) +
         ", \"build_type\": " + JsonString(XCVB_BUILD_TYPE) +
         ", \"commit\": " + JsonString(commit) + "}";
}

bool IsReleaseBuild() { return std::string(XCVB_BUILD_TYPE) == "Release"; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int CampaignThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::uint64_t TreeBytes(const std::string& dir, const std::string& prefix) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (!e.is_regular_file() ||
        e.path().filename().string().rfind(prefix, 0) != 0)
      continue;
    total += FileBytes(e.path().string());
  }
  return total;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace xcvb
