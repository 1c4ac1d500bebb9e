#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "api/job_spec.h"
#include "support/check.h"

namespace xcv::bench {

BenchConfig StartBench(int argc, char** argv, const std::string& title,
                       const std::string& paper_ref) {
  BenchConfig config;
  try {
    const api::ArgList args = api::SplitArgs(argc, argv);
    XCV_CHECK_MSG(args.operands.empty(),
                  "unexpected argument '" << args.operands.front() << "'");
    api::JobSpec spec = api::DefaultJobSpec();
    api::ApplyFlags(args.flags, spec, {"pb-grid"});
    api::ValidateJobSpec(spec);
    config.options = spec.options;
    const auto n = static_cast<std::size_t>(api::FlagInteger(
        args.flags, "pb-grid", 150, 1, std::numeric_limits<int>::max()));
    config.pb.n_rs = n;
    config.pb.n_s = n;
    config.pb.n_alpha = 9;
  } catch (const InternalError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
  const verifier::VerifierOptions& v = config.options.verifier;
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  // 0 = unlimited, the --budget-seconds convention.
  std::printf("Budget: %.0fs/pair, threshold t=%.4g, %llu-node solver calls, "
              "%d thread(s)\n",
              std::isinf(v.total_time_budget_seconds)
                  ? 0.0
                  : v.total_time_budget_seconds,
              v.split_threshold,
              static_cast<unsigned long long>(v.solver.max_nodes),
              config.options.num_threads);
  std::printf("==============================================================\n\n");
  return config;
}

namespace {

PairRun ToPairRun(campaign::PairState state) {
  PairRun run;
  run.applicable = state.applicable;
  run.verdict = state.verdict;
  run.seconds = state.seconds;
  run.report = std::move(state.report);
  return run;
}

}  // namespace

PairRun RunPair(const functionals::Functional& f,
                const conditions::ConditionInfo& cond,
                const campaign::CampaignOptions& options) {
  campaign::Campaign c(options);
  c.Add(f, cond);
  campaign::CampaignResult result = c.Run();
  PairRun run = ToPairRun(std::move(result.pairs.at(0)));
  // A one-pair campaign's wall time is the pair's wall time (PairState
  // carries busy seconds, which only match wall time sequentially).
  run.seconds = result.seconds;
  return run;
}

std::vector<std::vector<PairRun>> RunMatrix(
    const std::vector<functionals::Functional>& functionals,
    const std::vector<conditions::ConditionInfo>& conditions,
    const campaign::CampaignOptions& options, const char* progress_tag) {
  campaign::Campaign c(options);
  c.AddMatrix(functionals, conditions);
  campaign::CampaignResult result = c.Run(
      [progress_tag](const campaign::PairState& p, std::size_t completed,
                     std::size_t total) {
        std::fprintf(stderr, "[%s] %zu/%zu %s x %s: %s\n", progress_tag,
                     completed, total, p.condition.c_str(),
                     p.functional.c_str(),
                     verifier::VerdictName(p.verdict).c_str());
      });

  std::vector<std::vector<PairRun>> runs;
  runs.reserve(conditions.size());
  std::size_t flat = 0;
  for (std::size_t r = 0; r < conditions.size(); ++r) {
    runs.emplace_back();
    for (std::size_t col = 0; col < functionals.size(); ++col)
      runs.back().push_back(ToPairRun(std::move(result.pairs.at(flat++))));
  }
  return runs;
}

}  // namespace xcv::bench
