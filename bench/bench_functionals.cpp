// Section I complexity claims: operation counts of the DFA implementations
// ("the correlation part of PBE is significantly more complex with over 300
// operations... SCAN is even more complex with over 1000 operations,
// including transcendental functions"), plus evaluation cost per point.
#include <cstdio>

#include "common.h"
#include "conditions/enhancement.h"
#include "expr/compile.h"
#include "support/stopwatch.h"

int main(int argc, char** argv) {
  using namespace xcv;
  bench::StartBench(
      argc, argv, "Functional implementation complexity and evaluation cost",
      "paper Section I op-count claims + encoder statistics");

  std::printf("%-9s %-9s %-14s %10s %10s %8s %7s %7s\n", "DFA", "family",
              "design", "tree ops", "dag ops", "depth", "transc", "ns/pt");
  for (const auto& f : functionals::PaperFunctionals()) {
    expr::Expr total = f.eps_c;
    if (f.HasExchange()) total = expr::Add(f.eps_x, f.eps_c);
    const auto tape = expr::Compile(total);
    expr::TapeScratch scratch;
    // Time double evaluation over a sweep of points.
    Stopwatch watch;
    const int kPoints = 20000;
    double sink = 0.0;
    for (int i = 0; i < kPoints; ++i) {
      const double env[3] = {0.1 + 4.8 * (i % 100) / 99.0,
                             5.0 * ((i / 100) % 100) / 99.0,
                             0.5 + (i % 7) * 0.5};
      sink += expr::EvalTape(tape, env, scratch);
    }
    const double ns = watch.ElapsedSeconds() / kPoints * 1e9;
    std::printf("%-9s %-9s %-14s %10zu %10zu %8zu %7s %7.0f\n",
                f.name.c_str(),
                functionals::FamilyName(f.family).c_str(),
                functionals::DesignName(f.design).c_str(),
                expr::OpCountTree(total), expr::OpCountDag(total),
                expr::Depth(total),
                expr::HasTranscendental(total) ? "yes" : "no", ns);
    (void)sink;
  }

  std::printf(
      "\nDerivative growth (the encoder computes these symbolically; "
      "EC3 needs the\nsecond derivative — this is what the solver must "
      "reason about):\n");
  std::printf("%-9s %12s %14s %14s\n", "DFA", "Fc dag ops", "dFc/drs dag",
              "d2Fc/drs2 dag");
  for (const auto& f : functionals::PaperFunctionals()) {
    const auto fc = conditions::CorrelationEnhancement(f);
    const auto dfc = conditions::DFcDrs(f);
    const auto d2fc = conditions::D2FcDrs2(f);
    std::printf("%-9s %12zu %14zu %14zu\n", f.name.c_str(),
                expr::OpCountDag(fc), expr::OpCountDag(dfc),
                expr::OpCountDag(d2fc));
  }
  std::printf(
      "\nPaper claims: PBE correlation > 300 ops (LibXC codegen), SCAN > "
      "1000 ops.\nOur builder folds constants, so absolute counts are "
      "smaller for the GGAs,\nbut the ordering LDA < GGA < SCAN and the "
      ">1000-op scale of SCAN hold.\n");
  return 0;
}
