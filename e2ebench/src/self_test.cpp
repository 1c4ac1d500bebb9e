// Self-tests of the benchmark harness's own machinery (xcv_e2e --self-test):
// seeded inputs, percentiles, the golden check, and registry deltas.
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "harness.h"
#include "obs/metrics.h"

namespace xcvb {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void SameSeedSameInputs(const Golden& golden) {
  std::fprintf(stderr, "seeded inputs\n");
  const std::string a = DescribeStream(MakeServiceStream(7, golden));
  const std::string b = DescribeStream(MakeServiceStream(7, golden));
  Expect(a == b, "same seed gives a byte-identical job stream");
  Expect(MakeProbeRoutes(7, 1000) == MakeProbeRoutes(7, 1000),
         "same seed gives an identical probe schedule");
  Expect(a != DescribeStream(MakeServiceStream(8, golden)) ||
             MakeProbeRoutes(7, 1000) != MakeProbeRoutes(8, 1000),
         "another seed gives other inputs");
  Expect(a != DescribeStream(MakeServiceStream(7, golden, 1)),
         "each epoch of a run draws its own job stream");
  std::string perm_a, perm_b;
  for (const PoolPair& p : PermutedPool(7)) perm_a += p.Key() + ";";
  for (const PoolPair& p : PermutedPool(7)) perm_b += p.Key() + ";";
  Expect(perm_a == perm_b, "same seed gives the same pair order");
  std::string perm_next;
  for (const PoolPair& p : PermutedPool(7, 1)) perm_next += p.Key() + ";";
  Expect(perm_next != perm_a, "each pass of a run draws its own order");

  // Cold jobs partition the service pool; repeats re-run an earlier job
  // exactly.
  const ServiceStream s = MakeServiceStream(7, golden);
  std::multiset<std::string> cold;
  std::size_t jobs = 0, repeats = 0;
  bool repeats_ok = true;
  for (int t = 0; t < kTenants; ++t) {
    for (std::size_t i = 0; i < s.tenant[t].size(); ++i) {
      const ServiceJob& j = s.tenant[t][i];
      ++jobs;
      if (j.repeat_of >= 0) {
        ++repeats;
        const ServiceJob& of =
            s.tenant[t][static_cast<std::size_t>(j.repeat_of)];
        repeats_ok &= static_cast<std::size_t>(j.repeat_of) < i &&
                      of.repeat_of < 0 && of.functional == j.functional &&
                      of.conditions == j.conditions;
        continue;
      }
      repeats_ok &= j.conditions.size() >= 2 && j.conditions.size() <= 3;
      for (const std::string& c : j.conditions)
        cold.insert(j.functional + "," + c);
    }
  }
  std::multiset<std::string> pool;
  for (const PoolPair& p : ServicePool(golden)) pool.insert(p.Key());
  Expect(cold == pool, "cold jobs cover every service pool pair exactly once");
  Expect(pool.size() > Pool().size() / 2 && pool.size() < Pool().size() &&
             !pool.count("LYP,EC3"),
         "the service pool leaves out only the pool's heaviest pairs (" +
             std::to_string(pool.size()) + " of " +
             std::to_string(Pool().size()) + ")");
  Expect(repeats_ok, "jobs hold 2-3 conditions; repeats re-run earlier jobs");
  Expect(2 * repeats < jobs && 2 * repeats + 4 >= jobs,
         "a little under half the jobs are repeats (" +
             std::to_string(repeats) + " of " + std::to_string(jobs) + ")");

  const std::vector<std::string> routes = MakeProbeRoutes(3, 10);
  std::map<std::string, int> mix;
  for (const std::string& r : routes) ++mix[r];
  bool even = mix.size() == 5;
  for (const auto& [r, n] : mix) even &= n == 2;
  Expect(even, "every block of five probes visits each route once");
}

void PercentilesReportCounts() {
  std::fprintf(stderr, "percentiles\n");
  std::vector<double> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  const Quantile p50 = Percentile(v, 50.0);
  Expect(p50.value == 10.5 && p50.n == 20 && p50.beyond == 10,
         "p50 of 1..20 is 10.5 with n=20 and 10 beyond");
  const Quantile p90 = Percentile(v, 90.0);
  Expect(std::fabs(p90.value - 18.1) < 1e-12 && p90.n == 20 && p90.beyond == 2,
         "p90 of 1..20 is 18.1 with 2 beyond");
  const Quantile none = Percentile({}, 50.0);
  Expect(none.n == 0 && none.value == 0.0, "an empty set reports n=0");
  const double inf = std::numeric_limits<double>::infinity();
  Expect(std::isinf(Percentile({1.0, 2.0, inf}, 90.0).value),
         "a failed (infinite) sample counts as slowest");
}

std::string ReportFromGolden(const Golden& golden, const std::string& flip) {
  std::string csv = "functional,condition,applicable,...\n";
  for (const auto& [key, row] : golden) {
    csv += key;
    for (std::size_t c = 0; c < row.cols.size(); ++c) {
      std::string field = row.cols[c];
      if (key == flip && c == 2)  // column 5: verdict
        field = field == "verified" ? "counterexample" : "verified";
      csv += "," + field;
    }
    csv += ",0,0,0,0.000\n";
  }
  return csv;
}

void GoldenCheckRejectsFlip(const Golden& golden) {
  std::fprintf(stderr, "golden check\n");
  std::vector<std::string> keys;
  for (const auto& [key, row] : golden) keys.push_back(key);
  Expect(CheckReport(ReportFromGolden(golden, ""), golden, kColdLastColumn,
                     keys).empty(),
         "the golden rows themselves pass");
  const std::string victim = "PBE,EC3";
  const std::vector<std::string> errors = CheckReport(
      ReportFromGolden(golden, victim), golden, kCachedLastColumn, keys);
  Expect(errors.size() == 1 && errors[0].find(victim) == 0 &&
             errors[0].find("verdict") != std::string::npos,
         "one flipped verdict is rejected and names the pair");
  keys.push_back("LYP,EC4");
  Expect(CheckReport(ReportFromGolden(golden, ""), golden, kCachedLastColumn,
                     keys).size() == 1,
         "a pair missing from the report is rejected");
}

void CounterReadsAreDeltas() {
  std::fprintf(stderr, "registry deltas\n");
  auto& reg = xcv::obs::Registry::Global();
  auto& plain = reg.GetCounter("xcv_e2ebench_selftest_total", "self-test");
  auto& red = reg.GetCounter("xcv_e2ebench_selftest_labeled_total",
                             "self-test", {"color"}, {"red"});
  auto& blue = reg.GetCounter("xcv_e2ebench_selftest_labeled_total",
                              "self-test", {"color"}, {"blue"});
  plain.Add(3);
  red.Add(4);
  const CounterSnapshot before = CounterSnapshot::Take();
  plain.Add(5);
  red.Add(1);
  blue.Add(2);
  const CounterSnapshot after = CounterSnapshot::Take();
  const CounterSnapshot delta = after.Minus(before);
  Expect(after.Sum("xcv_e2ebench_selftest_total") == 8,
         "the process total includes earlier work");
  Expect(delta.Sum("xcv_e2ebench_selftest_total") == 5,
         "the delta holds only the work in between");
  Expect(delta.Sum("xcv_e2ebench_selftest_labeled_total") == 3 &&
             delta.Sum("xcv_e2ebench_selftest_labeled_total",
                       "color=\"red\"") == 1,
         "label filters select series within a delta");
  Expect(delta.Sum("xcv_e2ebench_selftest") == 0,
         "a name prefix does not match another family");
}

}  // namespace

int RunSelfTests(const Golden& golden) {
  SameSeedSameInputs(golden);
  PercentilesReportCounts();
  GoldenCheckRejectsFlip(golden);
  CounterReadsAreDeltas();
  std::fprintf(stderr, "%s: %d failure(s)\n",
               g_failures ? "FAILED" : "passed", g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace xcvb
