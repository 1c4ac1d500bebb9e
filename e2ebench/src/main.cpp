// xcv_e2e: the end-to-end benchmark program.
//
//   xcv_e2e --workload NAME --seed N --seconds S --trace 0|1
//           --golden FILE --work-dir DIR [--commit SHA] [--trace-out FILE]
//   xcv_e2e --self-test --golden FILE
//   xcv_e2e --regen-golden FILE
//
// Prints the host fingerprint and sample counts on one JSON line, then the
// result as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every op passed, 1 on a verdict mismatch or failed op
// (the result is still printed), 2 on a usage or set-up error (no result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace xcvb {
int RunSelfTests(const Golden& golden);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e308 : (v < 0 ? -1e308 : 0.0);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<xcvb::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "xcv_e2e: %s\nusage: xcv_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 --golden FILE --work-dir DIR "
               "[--commit SHA] [--trace-out FILE]\n"
               "       xcv_e2e --self-test --golden FILE\n"
               "       xcv_e2e --regen-golden FILE\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage(("bad argument " + key).c_str());
    if (key == "--self-test") {
      args[key] = "1";
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage(("missing value for " + key).c_str());
    }
  }
  if (!xcvb::IsReleaseBuild()) {
    std::fprintf(stderr, "xcv_e2e: refusing to measure a non-Release build\n");
    return 2;
  }
  try {
    if (args.count("--self-test")) {
      if (!args.count("--golden")) return Usage("--self-test needs --golden");
      return xcvb::RunSelfTests(xcvb::LoadGolden(args["--golden"]));
    }
    if (args.count("--regen-golden")) {
      const std::string text = xcvb::RegenerateGolden();
      std::FILE* f = std::fopen(args["--regen-golden"].c_str(), "wb");
      if (f == nullptr) return Usage("cannot write the golden file");
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::fputs(text.c_str(), stderr);
      return 0;
    }
    for (const char* k : {"--workload", "--seed", "--seconds", "--trace",
                          "--golden", "--work-dir"})
      if (!args.count(k)) return Usage((std::string("missing ") + k).c_str());
    xcvb::RunConfig cfg;
    cfg.workload = args["--workload"];
    cfg.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
    cfg.seconds = std::atof(args["--seconds"].c_str());
    cfg.trace = args["--trace"] == "1";
    cfg.work_dir = args["--work-dir"];
    cfg.trace_path = args.count("--trace-out")
                         ? args["--trace-out"]
                         : cfg.work_dir + "/trace-" + cfg.workload + ".json";
    cfg.golden = xcvb::LoadGolden(args["--golden"]);
    bool known = false;
    for (const std::string& w : xcvb::WorkloadNames())
      known |= w == cfg.workload;
    if (!known) return Usage(("unknown workload " + cfg.workload).c_str());
    if (!(cfg.seconds > 0.0)) return Usage("--seconds must be positive");

    const std::string fingerprint = xcvb::FingerprintJson(
        args.count("--commit") ? args["--commit"] : "unknown");
    std::fprintf(stderr, "host: %s\n", fingerprint.c_str());
    xcvb::Outcome out = xcvb::RunWorkload(cfg);

    bool correct = out.errors.empty() && out.failed == 0;
    std::string info = "{\"workload\": \"" + cfg.workload +
                       "\", \"seed\": " + std::to_string(cfg.seed) +
                       ", \"host\": " + fingerprint + ", \"samples\": {";
    bool first = true;
    for (const auto& [name, n] : out.samples) {
      info += (first ? "\"" : ", \"") + name + "\": " + std::to_string(n);
      first = false;
    }
    info += "}, \"aliases\": " + MetricsJson(out.aliases);
    if (cfg.trace) {
      std::fprintf(stderr,
                   "self time per span (traced wall %.3f s, layers cover "
                   "%.1f%%; * = grouping span, unattributed):\n",
                   out.traced_wall_s,
                   100.0 * out.attributed_s / out.traced_wall_s);
      info += ", \"traced_wall_s\": " + Num(out.traced_wall_s) +
              ", \"attributed_s\": " + Num(out.attributed_s) +
              ", \"trace_file\": \"" + cfg.trace_path + "\", \"self_s\": {";
      first = true;
      for (const auto& [span, self] : out.self_times) {
        std::fprintf(stderr, "  %-24s %c %10.4f s  %5.1f%%\n", span.c_str(),
                     xcvb::IsLayerSpan(span) ? ' ' : '*', self,
                     100.0 * self / out.traced_wall_s);
        info += (first ? "\"" : ", \"") + span + "\": " + Num(self);
        first = false;
      }
      info += "}";
      // Attribution check: the layer spans' self times must account for the
      // traced wall time within 5%.
      if (std::fabs(out.attributed_s - out.traced_wall_s) >
          0.05 * out.traced_wall_s) {
        out.errors.push_back("attribution check: layers cover " +
                             Num(out.attributed_s) + " s of " +
                             Num(out.traced_wall_s) + " s");
        correct = false;
      }
    }
    info += "}";
    for (const std::string& e : out.errors)
      std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    std::printf("%s\n", info.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                MetricsJson(out.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xcv_e2e: %s\n", e.what());
    return 2;
  }
}
