// Recursive evaluators over the expression DAG.
//
// EvalDouble is IEEE double evaluation — used for model validation
// (Algorithm 1's valid(x)) and the PB grid baseline. EvalInterval is the
// sound enclosure — used by the solver for all verified/UNSAT claims.
// Both memoize per distinct DAG node per call. EvalDouble keeps its memo
// table per thread and reuses it across calls, so warm calls (and the
// EvalBool* validations built on it) do no heap allocation.
#pragma once

#include <span>

#include "expr/expr.h"
#include "interval/interval.h"

namespace xcv::expr {

/// Evaluates `e` at the point `env` (env[i] is the value of the variable
/// with index i). Out-of-range variable indices throw InternalError.
/// May return NaN/inf if the point is outside a function's domain.
double EvalDouble(const Expr& e, std::span<const double> env);

/// Sound interval enclosure of `e` over the box `box` (box[i] is the domain
/// of variable i). Empty inputs propagate to an empty result; out-of-domain
/// function arguments are clipped to the function's domain (matching the
/// solver's semantics where boxes are always within variable bounds).
Interval EvalInterval(const Expr& e, std::span<const Interval> box);

}  // namespace xcv::expr
