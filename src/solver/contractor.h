// HC4-revise contractor for a single atomic constraint "e rel 0".
//
// HC4 is the workhorse of interval-constraint-propagation solvers (dReal's
// included): a forward sweep computes interval enclosures for every node of
// the expression tape; the root enclosure is intersected with the constraint
// set ((-inf, 0] for ≤); a backward sweep then pushes the narrowed interval
// down through inverse operations, contracting the variable domains.
//
// Contraction is sound: no point of the box satisfying the constraint is
// ever removed. Operations with no useful inverse (trig, ite, non-constant
// exponents) simply do not contract — still sound.
#pragma once

#include "expr/bool_expr.h"
#include "expr/compile.h"
#include "expr/expr.h"
#include "solver/box.h"

namespace xcv::solver {

/// Result of one contraction pass.
enum class ContractOutcome {
  kEmpty,       // box proven infeasible for the atom
  kContracted,  // at least one variable domain narrowed
  kNoChange,
};

/// Compiled contractor for the atom "expr rel 0".
///
/// Boxes are passed as interval spans so the solver's pooled frontier slots
/// (BoxStore) contract in place; the Box overloads forward to the span
/// versions.
class AtomContractor {
 public:
  /// `atom` must be an atom-kind BoolExpr.
  explicit AtomContractor(const expr::BoolExpr& atom);
  AtomContractor(expr::Expr e, expr::Rel rel);

  /// Interval enclosure of the atom's expression over `box` (forward only).
  Interval Evaluate(std::span<const Interval> box,
                    expr::TapeScratch& scratch) const;
  Interval Evaluate(const Box& box, expr::TapeScratch& scratch) const {
    return Evaluate(box.dims(), scratch);
  }

  /// Atom truth status over a box, derived from Evaluate().
  enum class Status { kCertainlyTrue, kCertainlyFalse, kUnknown };
  Status Classify(std::span<const Interval> box,
                  expr::TapeScratch& scratch) const {
    return ClassifyRoot(Evaluate(box, scratch));
  }
  Status Classify(const Box& box, expr::TapeScratch& scratch) const {
    return Classify(box.dims(), scratch);
  }

  /// Truth status given an already-computed root enclosure (the wave
  /// classifier reads these straight out of the batched sweep's lanes).
  Status ClassifyRoot(const Interval& root) const;

  /// HC4-revise: narrows `box` in place to (a superset of) the subset
  /// satisfying the atom. Returns kEmpty if the atom holds nowhere in `box`.
  /// The solver runs the batched equivalent (expr::ContractTapeIntervalBatch
  /// over a wave); this scalar form is the oracle that sweep is tested
  /// against.
  ContractOutcome Contract(std::span<Interval> box,
                           expr::TapeScratch& scratch) const;
  ContractOutcome Contract(Box& box, expr::TapeScratch& scratch) const {
    return Contract(box.MutableDims(), scratch);
  }

  /// The backward half of HC4-revise: `slots` must hold this tape's forward
  /// enclosures over `box` (from EvalTapeIntervalForward or an extracted
  /// batch lane), which lets a caller that already classified the box skip
  /// the second forward sweep. `slots` is clobbered by the backward
  /// narrowing. Byte-identical to Contract on the same box.
  ContractOutcome ContractFromForward(std::span<Interval> box,
                                      std::vector<Interval>& slots) const;

  const expr::Tape& tape() const { return tape_; }
  expr::Rel rel() const { return rel_; }
  const expr::Expr& atom_expr() const { return expr_; }

 private:
  expr::Expr expr_;
  expr::Rel rel_;
  expr::Tape tape_;
};

}  // namespace xcv::solver
