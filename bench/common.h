// Shared driver for the reproduction benchmarks.
//
// Scaling: the paper ran dReal with a 2-hour per-call limit and split down
// to t = 0.05; a full Table I at that scale is a multi-day run. The bench
// binaries reproduce the *shape* (verdicts, violation regions, who times
// out) at a budget that completes in minutes on one core.
//
// Options: every bench binary starts from api::DefaultJobSpec() — the same
// defaults `xcv verify` runs with — and takes the same `--key=value` flags
// (api::ApplyFlags: --budget-seconds, --split-threshold, --solver-nodes,
// --delta, --wave-width, --threads, --cache, ...; XCV_CACHE supplies a
// default cache path), plus --pb-grid=N for the PB baseline grid points per
// axis (default 150). An unknown flag is a usage error (exit 2). Table I
// itself is `xcv verify --format=table`.
//
// All verification runs go through the campaign engine (src/campaign/):
// RunPair is a one-pair campaign, RunMatrix interleaves a whole matrix of
// pairs on the shared scheduler.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "gridsearch/pb_checker.h"
#include "verifier/verifier.h"

namespace xcv::bench {

/// One bench run's options, parsed from the command line.
struct BenchConfig {
  campaign::CampaignOptions options;
  gridsearch::PbOptions pb;
};

/// Parses argv over api::DefaultJobSpec() (see the header comment) and
/// prints the banner line shared by all bench binaries. A usage error
/// prints the message and exits 2.
BenchConfig StartBench(int argc, char** argv, const std::string& title,
                       const std::string& paper_ref);

/// Result of one DFA-condition pair run.
struct PairRun {
  bool applicable = false;
  verifier::Verdict verdict = verifier::Verdict::kNotApplicable;
  verifier::VerificationReport report;
  double seconds = 0.0;
};

/// Runs Algorithm 1 for one pair under the bench budget (a one-pair
/// campaign; options.num_threads workers).
PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const campaign::CampaignOptions& options);

/// Runs the full cross product as one campaign on the shared pool. Returns
/// runs[condition][functional] in the given orders. Progress streams to
/// stderr as "[tag] COND x DFA: verdict".
std::vector<std::vector<PairRun>> RunMatrix(
    const std::vector<functionals::Functional>& functionals,
    const std::vector<conditions::ConditionInfo>& conditions,
    const campaign::CampaignOptions& options, const char* progress_tag);

}  // namespace xcv::bench
