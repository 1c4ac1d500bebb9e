#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/conditions.h"
#include "expr/bool_expr.h"
#include "expr/eval.h"
#include "expr/expr.h"
#include "functionals/functional.h"
#include "interval/lambert_w.h"
#include "support/check.h"
#include "test_util.h"

// Counts every global operator new in this test binary, for the
// zero-allocation check on warm exact evaluation below. Every plain and
// nothrow form is replaced, so allocation and release always pair up
// (sanitizer runtimes check that they do).
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xcv::expr {
namespace {

using xcv::testing::RandomExprGen;
using xcv::testing::Rng;

Expr X() { return Expr::Variable("x", 0); }
Expr Y() { return Expr::Variable("y", 1); }
Expr C(double v) { return Expr::Constant(v); }

TEST(EvalDouble, BasicArithmetic) {
  const double env[2] = {3.0, 4.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(X() + Y(), s), 7.0);
  EXPECT_DOUBLE_EQ(EvalDouble(X() * Y(), s), 12.0);
  EXPECT_DOUBLE_EQ(EvalDouble(X() / Y(), s), 0.75);
  EXPECT_DOUBLE_EQ(EvalDouble(X() - Y(), s), -1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Pow(X(), 2.0), s), 9.0);
  EXPECT_DOUBLE_EQ(EvalDouble(-X(), s), -3.0);
}

TEST(EvalDouble, ElementaryFunctions) {
  const double env[1] = {0.5};
  std::span<const double> s(env, 1);
  EXPECT_DOUBLE_EQ(EvalDouble(ExpE(X()), s), std::exp(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(LogE(X()), s), std::log(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(SqrtE(X()), s), std::sqrt(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(CbrtE(X()), s), std::cbrt(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(SinE(X()), s), std::sin(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(CosE(X()), s), std::cos(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(AtanE(X()), s), std::atan(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(TanhE(X()), s), std::tanh(0.5));
  EXPECT_DOUBLE_EQ(EvalDouble(AbsE(-X()), s), 0.5);
}

TEST(EvalDouble, MinMaxIte) {
  const double env[2] = {1.0, 2.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(Min(X(), Y()), s), 1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Max(X(), Y()), s), 2.0);
  Expr ite = Ite(X(), Rel::kLe, Y(), C(10), C(20));
  EXPECT_DOUBLE_EQ(EvalDouble(ite, s), 10.0);
  Expr ite2 = Ite(Y(), Rel::kLt, X(), C(10), C(20));
  EXPECT_DOUBLE_EQ(EvalDouble(ite2, s), 20.0);
}

TEST(EvalDouble, IteBoundaryUsesRelation) {
  const double env[2] = {2.0, 2.0};
  std::span<const double> s(env, 2);
  EXPECT_DOUBLE_EQ(EvalDouble(Ite(X(), Rel::kLe, Y(), C(1), C(0)), s), 1.0);
  EXPECT_DOUBLE_EQ(EvalDouble(Ite(X(), Rel::kLt, Y(), C(1), C(0)), s), 0.0);
}

TEST(EvalDouble, OutOfRangeVariableThrows) {
  const double env[1] = {1.0};
  EXPECT_THROW(EvalDouble(Y(), std::span<const double>(env, 1)),
               xcv::InternalError);
}

TEST(EvalDouble, NanPropagates) {
  const double env[1] = {-1.0};
  EXPECT_TRUE(std::isnan(EvalDouble(SqrtE(X()),
                                    std::span<const double>(env, 1))));
}

TEST(EvalInterval, ConstantsAndVariables) {
  std::vector<Interval> box{Interval(1.0, 2.0)};
  EXPECT_EQ(EvalInterval(C(5), box), Interval(5.0));
  EXPECT_EQ(EvalInterval(X(), box), Interval(1.0, 2.0));
}

TEST(EvalInterval, IteHullsUncertainBranches) {
  // ite(x <= 1, 10, 20) over x in [0, 2]: both branches possible.
  std::vector<Interval> box{Interval(0.0, 2.0)};
  Expr e = Ite(X(), Rel::kLe, C(1), C(10), C(20));
  Interval r = EvalInterval(e, box);
  EXPECT_TRUE(r.Contains(10.0));
  EXPECT_TRUE(r.Contains(20.0));
  // Over x in [2, 3] only the else branch applies.
  std::vector<Interval> right{Interval(2.0, 3.0)};
  EXPECT_EQ(EvalInterval(e, right), Interval(20.0));
  // Over x in [0, 0.5] only the then branch applies.
  std::vector<Interval> left{Interval(0.0, 0.5)};
  EXPECT_EQ(EvalInterval(e, left), Interval(10.0));
}

TEST(EvalInterval, SharedSubexpressionEvaluatedConsistently) {
  // (x - x) evaluates to an interval containing 0 (interval arithmetic
  // cannot collapse it, but must contain the true value 0).
  std::vector<Interval> box{Interval(1.0, 2.0)};
  Expr e = X() - X();
  EXPECT_TRUE(EvalInterval(e, box).Contains(0.0));
}

TEST(EvalInterval, EmptyBoxPropagates) {
  std::vector<Interval> box{Interval::Empty()};
  EXPECT_TRUE(EvalInterval(X() + C(1), box).IsEmpty());
}

TEST(EvalIntervalProperty, EnclosesPointEvaluationOnRandomExprs) {
  Rng rng(4242);
  RandomExprGen gen(rng, {X(), Y()});
  int checked = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const Expr e = gen.Gen(4);
    std::vector<Interval> box{rng.RandomInterval(0.2, 3.0),
                              rng.RandomInterval(0.2, 3.0)};
    const Interval enclosure = EvalInterval(e, box);
    for (int pt = 0; pt < 5; ++pt) {
      const double env[2] = {rng.PointIn(box[0]), rng.PointIn(box[1])};
      const double v = EvalDouble(e, std::span<const double>(env, 2));
      if (!std::isfinite(v)) continue;
      ASSERT_TRUE(enclosure.Contains(v))
          << "value " << v << " at (" << env[0] << "," << env[1]
          << ") escaped " << enclosure.ToString() << " for "
          << e.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}


// ---- Exact evaluation against the map-memo reference -------------------------

// The evaluator as it was before its memo became a reused per-thread table:
// a fresh std::unordered_map per EvalDouble call. Same recursion, same
// operations in the same order.
class MapMemoEvaluator {
 public:
  explicit MapMemoEvaluator(std::span<const double> env) : env_(env) {}

  double Eval(const Expr& e) {
    auto it = memo_.find(e.id());
    if (it != memo_.end()) return it->second;
    const double v = Compute(e);
    memo_.emplace(e.id(), v);
    return v;
  }

 private:
  double Compute(const Expr& e) {
    const Node& n = e.node();
    const auto& ch = n.children();
    switch (n.op()) {
      case Op::kConst: return n.value();
      case Op::kVar: return env_[static_cast<std::size_t>(n.var_index())];
      case Op::kAdd: {
        double s = 0.0;
        for (const Expr& c : ch) s += Eval(c);
        return s;
      }
      case Op::kMul: {
        double p = 1.0;
        for (const Expr& c : ch) p *= Eval(c);
        return p;
      }
      case Op::kDiv: return Eval(ch[0]) / Eval(ch[1]);
      case Op::kPow: return std::pow(Eval(ch[0]), Eval(ch[1]));
      case Op::kMin: return std::fmin(Eval(ch[0]), Eval(ch[1]));
      case Op::kMax: return std::fmax(Eval(ch[0]), Eval(ch[1]));
      case Op::kNeg: return -Eval(ch[0]);
      case Op::kExp: return std::exp(Eval(ch[0]));
      case Op::kLog: return std::log(Eval(ch[0]));
      case Op::kSqrt: return std::sqrt(Eval(ch[0]));
      case Op::kCbrt: return std::cbrt(Eval(ch[0]));
      case Op::kSin: return std::sin(Eval(ch[0]));
      case Op::kCos: return std::cos(Eval(ch[0]));
      case Op::kAtan: return std::atan(Eval(ch[0]));
      case Op::kTanh: return std::tanh(Eval(ch[0]));
      case Op::kAbs: return std::fabs(Eval(ch[0]));
      case Op::kLambertW: return LambertW0(Eval(ch[0]));
      case Op::kIte: {
        const double l = Eval(ch[0]), r = Eval(ch[1]);
        const bool cond = n.rel() == Rel::kLe ? l <= r : l < r;
        return cond ? Eval(ch[2]) : Eval(ch[3]);
      }
      default:  // tape-only ops never occur in an expression DAG
        break;
    }
    return 0.0;
  }

  std::span<const double> env_;
  std::unordered_map<std::uint32_t, double> memo_;
};

double RefEvalDouble(const Expr& e, std::span<const double> env) {
  return MapMemoEvaluator(env).Eval(e);
}

bool RefEvalBool(const BoolExpr& b, std::span<const double> env,
                 double slack) {
  switch (b.kind()) {
    case BoolExpr::Kind::kTrue: return true;
    case BoolExpr::Kind::kFalse: return false;
    case BoolExpr::Kind::kAtom: {
      const double v = RefEvalDouble(b.atom(), env);
      return b.rel() == Rel::kLe ? v <= slack : v < slack;
    }
    case BoolExpr::Kind::kAnd:
      for (const BoolExpr& c : b.children())
        if (!RefEvalBool(c, env, slack)) return false;
      return true;
    case BoolExpr::Kind::kOr:
      for (const BoolExpr& c : b.children())
        if (RefEvalBool(c, env, slack)) return true;
      return false;
  }
  return false;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every ψ of the benchmark pool: {PBE, LYP, AM05} × the applicable
/// conditions, with the pair's paper domain.
struct PoolPsi {
  std::string name;
  BoolExpr psi;
  std::vector<Interval> domain;
};

std::vector<PoolPsi> PoolPsis() {
  std::vector<PoolPsi> out;
  for (const char* fname : {"PBE", "LYP", "AM05"}) {
    const auto& f = *functionals::FindFunctional(fname);
    for (const auto& c : conditions::AllConditions()) {
      if (!conditions::Applies(c, f)) continue;
      const auto psi = conditions::BuildCondition(c, f);
      if (!psi.has_value()) continue;
      const solver::Box domain = conditions::PaperDomain(f);
      out.push_back({f.name + "/" + c.short_id, *psi,
                     std::vector<Interval>(domain.dims().begin(),
                                           domain.dims().end())});
    }
  }
  return out;
}

/// Checks EvalDouble on every atom and EvalBool / EvalBoolWithSlack on the
/// whole formula against the reference, bit for bit.
void ExpectMatchesReference(const BoolExpr& psi, std::span<const double> env,
                            const std::string& what) {
  for (const BoolExpr& atom : CollectAtoms(psi)) {
    const double got = EvalDouble(atom.atom(), env);
    const double want = RefEvalDouble(atom.atom(), env);
    ASSERT_TRUE(SameBits(got, want) || (std::isnan(got) && std::isnan(want)))
        << what << ": " << got << " vs " << want;
  }
  EXPECT_EQ(EvalBool(psi, env), RefEvalBool(psi, env, 0.0)) << what;
  EXPECT_EQ(EvalBoolWithSlack(psi, env, 1e-9), RefEvalBool(psi, env, 1e-9))
      << what;
}

TEST(ExactEvalReference, PoolPsisAtRandomAndSpecialPoints) {
  const std::vector<PoolPsi> pool = PoolPsis();
  ASSERT_GE(pool.size(), 19u);
  Rng rng(20260523);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, kNan, kInf, -kInf, 1e-300, -1.0};
  for (const PoolPsi& p : pool) {
    const std::size_t dims = p.domain.size();
    std::vector<double> env(dims);
    for (int trial = 0; trial < 200; ++trial) {
      for (std::size_t d = 0; d < dims; ++d) {
        // Mostly inside the domain, sometimes well outside it (where
        // logs and roots go NaN).
        const Interval& iv = p.domain[d];
        env[d] = trial % 4 == 3 ? rng.Uniform(-2.0 * iv.hi(), 2.0 * iv.hi())
                                : rng.PointIn(iv);
      }
      ExpectMatchesReference(p.psi, env, p.name);
    }
    for (double sv : specials) {
      for (std::size_t d = 0; d < dims; ++d) {
        for (std::size_t e = 0; e < dims; ++e)
          env[e] = e == d ? sv : p.domain[e].Midpoint();
        ExpectMatchesReference(p.psi, env,
                               p.name + " special " + std::to_string(sv));
      }
    }
  }
}

TEST(ExactEvalReference, IteAndSharedSubexpressions) {
  Rng rng(77);
  RandomExprGen gen(rng, {X(), Y()});
  for (int trial = 0; trial < 300; ++trial) {
    const Expr a = gen.Gen(3), b = gen.Gen(3);
    const Expr shared = a * b;
    const Expr e = Ite(a, trial % 2 == 0 ? Rel::kLe : Rel::kLt, b,
                       shared + a, shared - b) +
                   shared;
    const BoolExpr f = BoolExpr::Or({BoolExpr::Le(e, C(0)),
                                     BoolExpr::Lt(a - b, C(0.5))});
    const double env[2] = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    ExpectMatchesReference(f, env, e.ToString());
  }
  // Equal operands take the relation's boundary branch.
  const double tie[2] = {2.0, 2.0};
  ExpectMatchesReference(
      BoolExpr::Le(Ite(X(), Rel::kLe, Y(), C(-1), C(1)), C(0)), tie, "kLe tie");
  ExpectMatchesReference(
      BoolExpr::Le(Ite(X(), Rel::kLt, Y(), C(-1), C(1)), C(0)), tie, "kLt tie");
}

TEST(ExactEvalReference, ThrowMidEvaluationLeavesTheMemoUsable) {
  const Expr big = ExpE(X()) * SqrtE(X() + C(1)) + LogE(X() + C(2));
  const double one[1] = {0.5};
  const double want = RefEvalDouble(big, one);
  // A variable outside the environment throws halfway through the DAG.
  EXPECT_THROW(EvalDouble(big + Y() * big, std::span<const double>(one, 1)),
               xcv::InternalError);
  EXPECT_TRUE(SameBits(EvalDouble(big, one), want));
}

TEST(ExactEvalReference, WarmEvalBoolDoesNotAllocate) {
  const std::vector<PoolPsi> pool = PoolPsis();
  Rng rng(5);
  // Inputs are built up front; only the evaluations are counted.
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 1000; ++i) {
    const PoolPsi& p = pool[static_cast<std::size_t>(i) % pool.size()];
    std::vector<double> env;
    for (const Interval& iv : p.domain) env.push_back(rng.PointIn(iv));
    points.push_back(std::move(env));
  }
  for (std::size_t i = 0; i < pool.size(); ++i)
    (void)EvalBool(pool[i].psi, points[i]);  // warm the memo table

  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  int satisfied = 0;
  for (std::size_t i = 0; i < points.size(); ++i)
    satisfied += EvalBool(pool[i % pool.size()].psi, points[i]) ? 1 : 0;
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "heap allocations in 1000 warm EvalBool";
  EXPECT_GE(satisfied, 0);
}

}  // namespace
}  // namespace xcv::expr
