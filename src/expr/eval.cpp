#include "expr/eval.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "interval/lambert_w.h"
#include "support/check.h"

namespace xcv::expr {

namespace {

/// Per-call memo of EvalDouble, keyed by node id: an open-addressed table
/// (linear probing, load factor at most 1/2) whose entries carry the epoch
/// of the call that wrote them. Begin() starts a call by bumping the epoch,
/// so the table empties in O(1) and its storage is reused by every later
/// call on the same thread — model validation at the delta floor and in the
/// verifier runs allocation-free once the table has grown to the largest
/// formula seen. Only which nodes are looked up again changes, never how a
/// node's value is computed, so results are bit-identical to a fresh map.
class DoubleMemo {
 public:
  void Begin() {
    if (++epoch_ == 0) {  // wrapped: every stamp could now look current
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    count_ = 0;
    if (slots_.empty()) slots_.resize(kMinSlots);
  }

  const double* Find(std::uint32_t id) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Hash(id) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.id == id) return &s.value;
    }
  }

  void Insert(std::uint32_t id, double value) {
    if (2 * (count_ + 1) > slots_.size()) Grow();
    Place(id, value);
    ++count_;
  }

 private:
  struct Slot {
    std::uint32_t id = 0;
    std::uint32_t epoch = 0;  // 0 never matches a live epoch
    double value = 0.0;
  };
  static constexpr std::size_t kMinSlots = 64;

  static std::size_t Hash(std::uint32_t id) {
    return static_cast<std::size_t>((id * 0x9E3779B1u) ^ (id >> 16));
  }

  void Place(std::uint32_t id, double value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash(id) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = {id, epoch_, value};
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.epoch == epoch_) Place(s.id, s.value);
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  std::uint32_t epoch_ = 0;
};

class DoubleEvaluator {
 public:
  DoubleEvaluator(std::span<const double> env, DoubleMemo& memo)
      : env_(env), memo_(memo) {
    memo_.Begin();
  }

  double Eval(const Expr& e) {
    if (const double* hit = memo_.Find(e.id())) return *hit;
    const double v = Compute(e);
    memo_.Insert(e.id(), v);
    return v;
  }

 private:
  double Compute(const Expr& e) {
    const Node& n = e.node();
    const auto& ch = n.children();
    switch (n.op()) {
      case Op::kConst:
        return n.value();
      case Op::kVar:
        XCV_CHECK_MSG(n.var_index() >= 0 &&
                          static_cast<std::size_t>(n.var_index()) < env_.size(),
                      "variable '" << n.var_name() << "' (index "
                                   << n.var_index()
                                   << ") outside environment of size "
                                   << env_.size());
        return env_[static_cast<std::size_t>(n.var_index())];
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
      case Op::kDiv:
        return Eval(ch[0]) / Eval(ch[1]);
      case Op::kPow:
        return std::pow(Eval(ch[0]), Eval(ch[1]));
      case Op::kMin:
        return std::fmin(Eval(ch[0]), Eval(ch[1]));
      case Op::kMax:
        return std::fmax(Eval(ch[0]), Eval(ch[1]));
      case Op::kNeg:
        return -Eval(ch[0]);
      case Op::kExp:
        return std::exp(Eval(ch[0]));
      case Op::kLog:
        return std::log(Eval(ch[0]));
      case Op::kSqrt:
        return std::sqrt(Eval(ch[0]));
      case Op::kCbrt:
        return std::cbrt(Eval(ch[0]));
      case Op::kSin:
        return std::sin(Eval(ch[0]));
      case Op::kCos:
        return std::cos(Eval(ch[0]));
      case Op::kAtan:
        return std::atan(Eval(ch[0]));
      case Op::kTanh:
        return std::tanh(Eval(ch[0]));
      case Op::kAbs:
        return std::fabs(Eval(ch[0]));
      case Op::kLambertW:
        return LambertW0(Eval(ch[0]));
      case Op::kIte: {
        const double l = Eval(ch[0]), r = Eval(ch[1]);
        const bool cond = n.rel() == Rel::kLe ? l <= r : l < r;
        return cond ? Eval(ch[2]) : Eval(ch[3]);
      }
    }
    XCV_CHECK_MSG(false, "unhandled op in EvalDouble");
    return 0.0;
  }

  std::span<const double> env_;
  DoubleMemo& memo_;
};

}  // namespace

double EvalDouble(const Expr& e, std::span<const double> env) {
  XCV_CHECK(!e.IsNull());
  // EvalDouble never re-enters itself, so one memo per thread suffices.
  thread_local DoubleMemo memo;
  return DoubleEvaluator(env, memo).Eval(e);
}

}  // namespace xcv::expr
