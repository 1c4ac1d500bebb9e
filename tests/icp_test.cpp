#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "expr/eval.h"
#include "functionals/functional.h"
#include "solver/icp.h"
#include "support/check.h"
#include "support/simd.h"
#include "test_util.h"

namespace xcv::solver {
namespace {

using expr::BoolExpr;
using expr::Expr;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

SolverOptions Fast() {
  SolverOptions o;
  o.max_nodes = 50'000;
  o.delta = 1e-4;
  return o;
}

TEST(DeltaSolver, UnsatisfiableFormula) {
  // x^2 + 1 < 0 has no real solution.
  DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(-10.0, 10.0)}));
  EXPECT_EQ(r.kind, SatKind::kUnsat);
  EXPECT_GT(r.stats.nodes, 0u);
}

TEST(DeltaSolver, SatisfiableWithValidModel) {
  // x - 1 <= 0 over [0, 10].
  DeltaSolver solver(BoolExpr::Le(X() - C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 10.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  ASSERT_EQ(r.model.size(), 1u);
  EXPECT_LE(r.model[0], 1.0 + 1e-6);
  EXPECT_TRUE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, NonlinearSat) {
  // sin(x) >= 0.99 has solutions near pi/2.
  DeltaSolver solver(BoolExpr::Ge(expr::SinE(X()), C(0.99)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 3.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_NEAR(r.model[0], M_PI / 2.0, 0.2);
  EXPECT_TRUE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, InfeasibleBelowDeltaIsDeltaSatWithInvalidModel) {
  // x^2 >= x^2 + 1e-8 is unsatisfiable, but the violation margin (1e-8) is
  // far below delta: interval dependency on the shared x^2 term keeps the
  // residual enclosure wider than the margin at every split level, so the
  // delta-decision is delta-SAT — and the model fails exact validation.
  // This is precisely dReal's delta-weakening semantics.
  DeltaSolver solver(
      BoolExpr::Ge(X() * X(), X() * X() + C(1e-8)), Fast());
  auto r = solver.Check(Box({Interval(0.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_FALSE(solver.ValidateModel(r.model));
}

TEST(DeltaSolver, DeltaSatMayBeInvalid) {
  // x*(1-x) >= 0.2500001 is infeasible (max of x(1-x) is 0.25) but only by
  // 1e-7 — far below delta, so the solver reports delta-sat with a model
  // that fails exact validation. This is the paper's "inconclusive" case.
  SolverOptions opts = Fast();
  opts.delta = 1e-3;
  DeltaSolver solver(
      BoolExpr::Ge(X() * (C(1) - X()), C(0.2500001)), opts);
  auto r = solver.Check(Box({Interval(0.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_FALSE(solver.ValidateModel(r.model));
}

// A formula whose atom stays Unknown on wide boxes: the dependency
// x*x - x*x never collapses, so the enclosure of (x*x + eps - x*x) is
// [eps - w, eps + w] and refutation requires descending to tiny boxes.
BoolExpr SlowToDecide() {
  return BoolExpr::Le(X() * X() + C(1e-3) - X() * X(), C(0));
}

TEST(DeltaSolver, TimeoutOnTinyBudget) {
  SolverOptions opts = Fast();
  opts.max_nodes = 2;  // nowhere near enough
  DeltaSolver solver(SlowToDecide(), opts);
  auto r = solver.Check(Box({Interval(0.0, 100.0)}));
  EXPECT_EQ(r.kind, SatKind::kTimeout);
}

TEST(DeltaSolver, WallClockTimeout) {
  SolverOptions opts = Fast();
  opts.max_nodes = 100'000'000;
  opts.time_budget_seconds = 0.0;  // already expired
  DeltaSolver solver(SlowToDecide(), opts);
  auto r = solver.Check(Box({Interval(0.0, 100.0)}));
  EXPECT_EQ(r.kind, SatKind::kTimeout);
}

TEST(DeltaSolver, Conjunction) {
  // x >= 1 and x <= 1: only x = 1.
  BoolExpr f = BoolExpr::And(
      {BoolExpr::Ge(X(), C(1)), BoolExpr::Le(X(), C(1))});
  DeltaSolver solver(f, Fast());
  auto r = solver.Check(Box({Interval(-5.0, 5.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_NEAR(r.model[0], 1.0, 1e-3);
}

TEST(DeltaSolver, ConjunctionUnsat) {
  BoolExpr f = BoolExpr::And(
      {BoolExpr::Ge(X(), C(2)), BoolExpr::Le(X(), C(1))});
  DeltaSolver solver(f, Fast());
  EXPECT_EQ(solver.Check(Box({Interval(-5.0, 5.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, Disjunction) {
  // x <= -3 or x >= 3 over [-1, 5]: satisfiable on the right branch.
  BoolExpr f = BoolExpr::Or(
      {BoolExpr::Le(X(), C(-3)), BoolExpr::Ge(X(), C(3))});
  DeltaSolver solver(f, Fast());
  auto r = solver.Check(Box({Interval(-1.0, 5.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_GE(r.model[0], 3.0 - 1e-3);
  // Over [-1, 2] it is UNSAT.
  EXPECT_EQ(solver.Check(Box({Interval(-1.0, 2.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, TwoVariables) {
  // x^2 + y^2 <= 0.01 within [0.5, 1]^2 is UNSAT.
  BoolExpr f = BoolExpr::Le(X() * X() + Y() * Y(), C(0.01));
  DeltaSolver solver(f, Fast());
  EXPECT_EQ(
      solver.Check(Box({Interval(0.5, 1.0), Interval(0.5, 1.0)})).kind,
      SatKind::kUnsat);
  // Within [-1, 1]^2 it is satisfiable near the origin.
  auto r = solver.Check(Box({Interval(-1.0, 1.0), Interval(-1.0, 1.0)}));
  ASSERT_EQ(r.kind, SatKind::kDeltaSat);
  EXPECT_LE(r.model[0] * r.model[0] + r.model[1] * r.model[1], 0.02);
}

TEST(DeltaSolver, TrivialFormulas) {
  DeltaSolver t(BoolExpr::True(), Fast());
  auto rt = t.Check(Box({Interval(0.0, 1.0)}));
  EXPECT_EQ(rt.kind, SatKind::kDeltaSat);
  DeltaSolver f(BoolExpr::False(), Fast());
  EXPECT_EQ(f.Check(Box({Interval(0.0, 1.0)})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, EmptyDomainIsUnsat) {
  DeltaSolver solver(BoolExpr::Le(X(), C(100)), Fast());
  EXPECT_EQ(solver.Check(Box({Interval::Empty()})).kind, SatKind::kUnsat);
}

TEST(DeltaSolver, RejectsBadOptions) {
  SolverOptions bad;
  bad.delta = 0.0;
  EXPECT_THROW(DeltaSolver(BoolExpr::True(), bad), xcv::InternalError);
}

TEST(DeltaSolver, ContractionReducesNodesVsPureBranchAndPrune) {
  // The §III-B ablation in miniature: HC4 on vs off for the same query.
  BoolExpr f = BoolExpr::Le(expr::ExpE(X()) + X() * X(), C(0.2));
  SolverOptions with = Fast();
  SolverOptions without = Fast();
  without.contraction_rounds = 0;
  auto r_with = DeltaSolver(f, with).Check(Box({Interval(-50.0, 50.0)}));
  auto r_without =
      DeltaSolver(f, without).Check(Box({Interval(-50.0, 50.0)}));
  // Both must agree on satisfiability.
  EXPECT_EQ(r_with.kind, r_without.kind);
  // And contraction must not be slower in node count.
  EXPECT_LE(r_with.stats.nodes, r_without.stats.nodes);
}

TEST(DeltaSolver, StatsArePopulated) {
  DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), Fast());
  auto r = solver.Check(Box({Interval(-2.0, 2.0)}));
  EXPECT_GT(r.stats.nodes, 0u);
  EXPECT_GT(r.stats.prunes, 0u);
  EXPECT_GE(r.stats.seconds, 0.0);
}

TEST(SatKindNames, AreReadable) {
  EXPECT_EQ(SatKindName(SatKind::kUnsat), "UNSAT");
  EXPECT_EQ(SatKindName(SatKind::kDeltaSat), "delta-SAT");
  EXPECT_EQ(SatKindName(SatKind::kTimeout), "TIMEOUT");
}

// Soundness sweep: UNSAT answers must never contradict a sampled model.
TEST(DeltaSolverProperty, UnsatAnswersAreSound) {
  Rng rng(60221023);
  xcv::testing::RandomExprGen gen(rng, {X(), Y()});
  for (int trial = 0; trial < 120; ++trial) {
    const Expr e = gen.Gen(3) - C(rng.Uniform(-1.0, 1.0));
    BoolExpr f = BoolExpr::Le(e, C(0));
    Box box({rng.RandomInterval(0.2, 3.0), rng.RandomInterval(0.2, 3.0)});
    SolverOptions opts = Fast();
    opts.max_nodes = 20'000;
    auto r = DeltaSolver(f, opts).Check(box);
    if (r.kind != SatKind::kUnsat) continue;
    for (int pt = 0; pt < 30; ++pt) {
      const auto p = rng.PointIn(box);
      const double v = expr::EvalDouble(e, p);
      ASSERT_FALSE(std::isfinite(v) && v <= 0.0)
          << "UNSAT contradicted by point for " << e.ToString();
    }
  }
}


// ---- Solver workspaces ------------------------------------------------------

void ExpectSameResult(const CheckResult& got, const CheckResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.kind, want.kind) << what;
  ASSERT_EQ(got.model.size(), want.model.size()) << what;
  for (std::size_t i = 0; i < got.model.size(); ++i)
    EXPECT_TRUE(SameDoubleBits(got.model[i], want.model[i]))
        << what << " model[" << i << "]";
  EXPECT_TRUE(SameBoxBits(got.model_box.dims(), want.model_box.dims()))
      << what << " model_box";
  EXPECT_EQ(got.stats.nodes, want.stats.nodes) << what;
  EXPECT_EQ(got.stats.contractions, want.stats.contractions) << what;
  EXPECT_EQ(got.stats.prunes, want.stats.prunes) << what;
}

/// ¬ψ for a paper (functional, condition) pair over its paper domain.
struct PaperCase {
  std::string name;
  BoolExpr formula;
  Box domain;
  SolverOptions options;
};

PaperCase MakePaperCase(const char* functional, const char* condition,
                        std::uint64_t max_nodes, int presample_points) {
  const auto& f = *functionals::FindFunctional(functional);
  const auto psi =
      conditions::BuildCondition(*conditions::FindCondition(condition), f);
  XCV_CHECK(psi.has_value());
  SolverOptions o;
  o.max_nodes = max_nodes;
  o.presample_points = presample_points;
  return {std::string(functional) + "/" + condition, BoolExpr::Not(*psi),
          conditions::PaperDomain(f), o};
}

/// Formulas of different dimension and tape size, including ones where
/// contraction cannot run (no required atom; zero rounds) and a budget
/// smaller than the first wave.
std::vector<PaperCase> WorkspaceCases() {
  std::vector<PaperCase> cases;
  cases.push_back(MakePaperCase("PBE", "EC1", 400, 0));
  cases.push_back(MakePaperCase("SCAN", "EC1", 150, 225));
  cases.push_back(MakePaperCase("LYP", "EC2", 5, 0));
  cases.push_back(MakePaperCase("AM05", "EC3", 300, 225));
  SolverOptions tiny = Fast();
  tiny.max_nodes = 3000;
  cases.push_back({"1d-unsat", BoolExpr::Lt(X() * X() + C(1), C(0)),
                   Box({Interval(-2.0, 2.0)}), tiny});
  SolverOptions no_presample = tiny;
  no_presample.presample_points = 0;
  cases.push_back({"2d-or-no-required-atom",
                   BoolExpr::Or({BoolExpr::Lt(X() * X() + C(1), C(0)),
                                 BoolExpr::Lt(Y() * Y() + C(2), C(0))}),
                   Box({Interval(-2.0, 2.0), Interval(-1.0, 3.0)}),
                   no_presample});
  SolverOptions no_rounds = no_presample;
  no_rounds.contraction_rounds = 0;
  no_rounds.max_nodes = 700;
  cases.push_back({"2d-no-rounds",
                   BoolExpr::And({BoolExpr::Le(X() * Y() - C(0.3), C(0)),
                                  BoolExpr::Ge(X() + Y(), C(3.5))}),
                   Box({Interval(0.0, 2.0), Interval(0.0, 2.0)}), no_rounds});
  return cases;
}

TEST(SolverWorkspace, OneThreadAlternatingSolversMatchesFreshSolvers) {
  const std::vector<PaperCase> cases = WorkspaceCases();
  // Reference: width 1 (scalar classification), fresh solver, fresh
  // workspace, the dispatch's own tier.
  std::vector<CheckResult> ref;
  for (const PaperCase& c : cases) {
    SolverOptions o = c.options;
    o.wave_width = 1;
    SolverWorkspace fresh;
    ref.push_back(DeltaSolver(c.formula, o).Check(c.domain, true, fresh));
  }

  const simd::Tier original = simd::ActiveTier();
  for (int width : {1, 8, 64, 256}) {
    std::vector<std::unique_ptr<DeltaSolver>> solvers;
    for (const PaperCase& c : cases) {
      SolverOptions o = c.options;
      o.wave_width = width;
      solvers.push_back(std::make_unique<DeltaSolver>(c.formula, o));
    }
    for (int t = 0; t < simd::kNumTiers; ++t) {
      const auto tier = static_cast<simd::Tier>(t);
      if (!simd::ForceTierForTesting(tier)) continue;  // not runnable here
      const std::string at = std::string(" width ") + std::to_string(width) +
                             " tier " + simd::TierName(tier);
      SolverWorkspace shared;
      // Forward then backward, so every solver runs on a workspace last
      // sized by a solver of another dimension and tape size.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < cases.size(); ++k) {
          const std::size_t i = pass == 0 ? k : cases.size() - 1 - k;
          ExpectSameResult(solvers[i]->Check(cases[i].domain, true, shared),
                           ref[i], cases[i].name + at);
        }
      }
      // The calling thread's own workspace serves the same way.
      for (std::size_t i = 0; i < cases.size(); ++i)
        ExpectSameResult(solvers[i]->Check(cases[i].domain), ref[i],
                         cases[i].name + at + " (thread workspace)");
    }
  }
  ASSERT_TRUE(simd::ForceTierForTesting(original));
}

TEST(SolverWorkspace, SharedSolverCheckedFromFourThreadsMatchesSequential) {
  PaperCase c = MakePaperCase("PBE", "EC1", 300, 225);
  const DeltaSolver solver(c.formula, c.options);
  // Sixteen sub-boxes of the paper domain, each decided independently.
  std::vector<Box> boxes{c.domain};
  while (boxes.size() < 16) {
    std::vector<Box> next;
    for (const Box& b : boxes) {
      auto [left, right] = b.Bisect(b.WidestDim());
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    boxes = std::move(next);
  }
  std::vector<CheckResult> sequential;
  for (const Box& b : boxes) sequential.push_back(solver.Check(b));

  constexpr int kThreads = 4;
  std::vector<std::vector<CheckResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t].resize(boxes.size());
      for (int round = 0; round < 2; ++round)
        for (std::size_t k = 0; k < boxes.size(); ++k) {
          const std::size_t i = (k + 4 * static_cast<std::size_t>(t)) %
                                boxes.size();
          got[t][i] = solver.Check(boxes[i]);
        }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < boxes.size(); ++i)
      ExpectSameResult(got[t][i], sequential[i],
                       "thread " + std::to_string(t) + " box " +
                           std::to_string(i));
}

TEST(SolverWorkspace, RejectsASecondConcurrentCall) {
  SolverOptions o = Fast();
  o.presample_points = 0;
  const DeltaSolver solver(BoolExpr::Lt(X() * X() + C(1), C(0)), o);
  SolverWorkspace ws;
  ws.busy = true;  // as if another call were running on it
  EXPECT_THROW(solver.Check(Box({Interval(-2.0, 2.0)}), true, ws),
               xcv::InternalError);
  ws.busy = false;
  EXPECT_EQ(solver.Check(Box({Interval(-2.0, 2.0)}), true, ws).kind,
            SatKind::kUnsat);
}

}  // namespace
}  // namespace xcv::solver
