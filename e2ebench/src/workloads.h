// The benchmark's three workloads over one pair pool, and the golden-file
// regeneration mode. See ../CATALOG.md for what each one measures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace xcvb {

struct RunConfig {
  std::string workload;  // cold-matrix | warm-replay | service-mixed
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // scratch space inside the checkout
  std::string trace_path;  // Chrome trace output (traced runs)
  Golden golden;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Verdict mismatches and failed operations, each naming what failed.
  std::vector<std::string> errors;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// The workload's own names for its headline numbers (informational).
  std::vector<Metric> aliases;
  std::map<std::string, std::size_t> samples;
  /// Traced runs: self seconds per span name, the traced wall time (the
  /// root span less the reference phase), and the part of it that layer
  /// spans account for.
  std::map<std::string, double> self_times;
  double traced_wall_s = 0.0;
  double attributed_s = 0.0;
};

const std::vector<std::string>& WorkloadNames();
Outcome RunWorkload(const RunConfig& config);

/// Runs the pool cold, cache-less, at one thread and returns the golden
/// file text.
std::string RegenerateGolden();

}  // namespace xcvb
