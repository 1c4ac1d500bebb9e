// Delta-complete satisfiability via interval constraint propagation and
// branch-and-prune — the decision procedure at the core of dReal (Gao, Kong,
// Clarke, CADE 2013), reimplemented over this repo's expression tapes.
//
// Semantics, matching the paper's use of dReal:
//   * kUnsat     — the formula has no solution in the queried box. Sound:
//                  backed entirely by outward-rounded interval arithmetic.
//   * kDeltaSat  — the delta-weakened formula is satisfiable; a model
//                  (point) is returned. The model may fail the *unweakened*
//                  formula — callers must validate it (Algorithm 1's
//                  valid(x)), and an invalid model is the paper's
//                  "inconclusive" outcome.
//   * kTimeout   — the resource budget (node expansions and/or wall clock)
//                  was exhausted, mirroring the paper's 2-hour dReal limit.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "expr/bool_expr.h"
#include "expr/interval_backward_batch.h"
#include "solver/box.h"
#include "solver/contractor.h"
#include "support/stopwatch.h"

namespace xcv::cache {
class VerdictCache;
}  // namespace xcv::cache

namespace xcv::solver {

/// Tuning knobs for one CheckSat call.
struct SolverOptions {
  /// Precision: boxes whose widest side is ≤ delta stop splitting and are
  /// reported delta-sat (with their midpoint as the model).
  double delta = 1e-3;
  /// Branch-and-prune node budget; exceeded → kTimeout. This is the
  /// deterministic analogue of the paper's wall-clock solver timeout.
  std::uint64_t max_nodes = 200'000;
  /// Optional wall-clock budget in seconds (infinity = unlimited).
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// HC4 fixpoint rounds per node (0 disables contraction — the ablation
  /// baseline of pure branch-and-prune).
  int contraction_rounds = 2;
  /// When a delta-box's midpoint fails exact validation, keep searching for
  /// a genuinely satisfying box up to this many rejections before reporting
  /// the (invalid) delta-sat model. 0 reproduces plain dReal behaviour
  /// (return the first delta-sat candidate).
  int max_invalid_models = 32;
  /// Before branch-and-prune, probe a deterministic lattice of this many
  /// points; a point that exactly satisfies the formula is returned as a
  /// (genuine) model immediately. Sound — candidates are validated with
  /// exact evaluation — and decouples counterexample discovery from the
  /// delta-resolution crawl. 0 disables.
  int presample_points = 225;
  /// Cap on the open boxes classified per batched interval sweep (the SoA
  /// wave): when the solver pops a box whose atoms are not yet classified,
  /// it speculatively classifies it together with the other unclassified
  /// boxes nearest the top of the stack, one EvalTapeIntervalBatch dispatch
  /// per atom. Waves ramp up to the cap: each Check starts at 8 lanes and
  /// doubles per wave, and no wave classifies more boxes than the node
  /// budget can still pop, so short calls do not pay for wide speculation. Purely an evaluation-batching knob: verdicts,
  /// models, and stats are byte-identical at every width (the batched
  /// kernels are bit-identical to the scalar evaluator and the DFS order
  /// never changes). 1 degenerates to scalar classification.
  int wave_width = 64;
  /// Optional persistent verdict cache (src/cache/). When set, Check
  /// consults it before any solver work — an exact (formula, options, box)
  /// hit replays the recorded result with from_cache set — and records its
  /// own reproducible verdicts (UNSAT, delta-sat, node-budget timeouts;
  /// never wall-clock timeouts). Non-owning; never serialized. The cache
  /// only skips work: a cache-less rerun of a deterministic run produces
  /// byte-identical results.
  cache::VerdictCache* cache = nullptr;
  /// Extra word folded into the cache scope hash. Campaigns salt with the
  /// condition id so cache keys spell out (functional tape, condition,
  /// options, box) even if two conditions compiled to equal tapes.
  std::uint64_t cache_salt = 0;
  /// Collect per-phase timings (forward wave classification vs backward
  /// contraction) into SolverStats. Purely observational — deliberately
  /// excluded from the cache scope hash, like wave_width — and off by
  /// default to keep clock reads out of the hot loop.
  bool measure_phases = false;
};

enum class SatKind { kUnsat, kDeltaSat, kTimeout };

std::string SatKindName(SatKind kind);

struct SolverStats {
  std::uint64_t nodes = 0;         // boxes popped
  std::uint64_t contractions = 0;  // HC4 passes executed
  std::uint64_t prunes = 0;        // boxes discarded by certainty/emptiness
  double seconds = 0.0;
  // Phase split, populated only when SolverOptions::measure_phases is set
  // (forward wave sweeps vs backward contraction incl. arena replay).
  double classify_seconds = 0.0;
  double contract_seconds = 0.0;
};

struct CheckResult {
  SatKind kind = SatKind::kTimeout;
  /// Witness point for kDeltaSat (midpoint of the terminal box).
  std::vector<double> model;
  /// Terminal box for kDeltaSat.
  Box model_box;
  SolverStats stats;
  /// True when the result was replayed from the verdict cache (stats.nodes
  /// then reports the recorded cold-run node count; no solver work ran).
  bool from_cache = false;
};

/// Three-valued truth of a formula skeleton (or one atom) over a box.
enum class Tri : signed char { kTrue, kFalse, kUnknown };

/// Mutable scratch of DeltaSolver::Check and DeltaSolver::ClassifyBoxes:
/// the branch-and-prune frontier, the wave and backward-contraction SoA
/// rows, the revalidation and presample buffers. Every buffer grows
/// monotonically and is re-keyed at the start of each call, so one
/// workspace serves solvers of any dimension and tape size in turn — a
/// worker thread keeps one (ForThisThread) and every formula it checks
/// reuses it, instead of each solver owning its own copy. Not thread-safe:
/// one call at a time.
struct SolverWorkspace {
  /// The calling thread's workspace (created on first use, freed at thread
  /// exit).
  static SolverWorkspace& ForThisThread();

  // Pooled branch-and-prune frontier: one BoxStore slot per open box, the
  // stack holds slot refs, and the per-slot side arrays carry the wave
  // classifier's results to the (possibly much later) pop.
  BoxStore store;
  std::vector<BoxStore::Ref> stack;
  std::vector<char> classified;   // slot -> atoms classified?
  std::vector<char> status_arena; // slot * num_atoms + atom -> Status
  std::vector<Interval> tmp_box;  // bisect staging
  // Speculatively materialized split: slot*2 -> {left, right} child refs
  // (-1 = not expanded).
  std::vector<BoxStore::Ref> child_arena;
  // Precomputed HC4 fixpoint per slot, replayed at pop.
  std::vector<char> bwd_valid;                  // slot -> arena filled
  std::vector<signed char> bwd_empty_arena;     // slot -> went empty
  std::vector<std::uint32_t> bwd_count_arena;   // slot -> contraction calls
  std::vector<double> bwd_box_arena;  // slot × dims × {lo, hi} final box
  std::vector<Tri> atom_status;       // one box's skeleton inputs

  // Wave buffers: dims rows of `wave_stride` lanes each.
  std::size_t wave_stride = 0;
  std::vector<BoxStore::Ref> wave_refs;
  std::vector<BoxStore::Ref> next_refs;  // children feeding the next level
  std::vector<double> wave_lo, wave_hi;
  std::vector<const double*> wave_lo_ptrs, wave_hi_ptrs;
  expr::TapeIntervalBatchScratch interval_batch;
  // Required atoms get their own forward scratch so their classification
  // sweeps double as the round-0 forward enclosures of the contraction.
  std::vector<expr::TapeIntervalBatchScratch> req_batch;
  expr::TapeBackwardBatchScratch backward;
  std::vector<double> bwd_lo, bwd_hi;  // working boxes, same layout
  std::vector<double*> bwd_lo_ptrs, bwd_hi_ptrs;
  std::vector<const double*> bwd_clo_ptrs, bwd_chi_ptrs;  // same rows
  std::vector<unsigned char> wave_active;  // lane takes this atom's sweep
  std::vector<unsigned char> wave_any;     // lane contracted this round
  std::vector<unsigned char> wave_done;    // lane left the fixpoint loop
  std::vector<unsigned char> wave_empty;   // lane's box proved infeasible
  std::vector<unsigned char> wave_unknown; // lane skeleton-undecided
  std::vector<std::uint32_t> wave_count;   // contraction calls per lane
  std::vector<signed char> wave_outcome;   // per-lane backward outcome

  // ClassifyBoxes SoA buffers (warm cache replays run one revalidation
  // sweep per wave, so this is a hot path too).
  std::vector<double> reval_lo, reval_hi;
  std::vector<const double*> reval_lo_ptrs, reval_hi_ptrs;
  std::vector<char> reval_status;  // box * atoms + atom

  // Presample lattice (rebuilt per Check, never reallocated once warm).
  std::vector<std::vector<double>> coords;  // SoA lattice, one row per dim
  std::vector<std::vector<double>> values;  // one row per atom
  std::vector<const double*> inputs;
  std::vector<char> atom_truth;
  expr::TapeBatchScratch batch;

  // Candidate models: the point under exact validation (a presample hit
  // or a delta-floor midpoint) and the last one that failed it.
  std::vector<double> point;
  std::vector<double> invalid_model;
  std::vector<Interval> invalid_box;

  bool busy = false;  // a call is using this workspace
};

/// Decision engine for one fixed formula, reusable across many boxes (the
/// verifier calls Check once per subdomain). The solver itself is the
/// compiled, immutable part — skeleton, atom contractors and their tapes,
/// required atoms, cache scope — so Check and ClassifyBoxes are const and
/// safe to call from many threads at once; all mutable scratch lives in a
/// SolverWorkspace (by default the calling thread's).
class DeltaSolver {
 public:
  /// `formula` is an NNF BoolExpr (True/False/atoms/and/or).
  DeltaSolver(expr::BoolExpr formula, SolverOptions options);

  /// Decides `formula` over `domain`, consulting the verdict cache when one
  /// is configured.
  CheckResult Check(const Box& domain) const { return Check(domain, true); }

  /// Check with explicit cache control: consult_cache=false forces a full
  /// solve (used after a cache hit fails revalidation; the fresh result
  /// overwrites the bad entry).
  CheckResult Check(const Box& domain, bool consult_cache) const {
    return Check(domain, consult_cache, SolverWorkspace::ForThisThread());
  }

  /// Check on an explicit workspace.
  CheckResult Check(const Box& domain, bool consult_cache,
                    SolverWorkspace& ws) const;

  const expr::BoolExpr& formula() const { return formula_; }
  const SolverOptions& options() const { return options_; }

  /// Scope half of the verdict-cache key: canonical tape fingerprints of
  /// every atom + skeleton shape + verdict-affecting options + cache_salt.
  /// wave_width is deliberately excluded (batching never changes verdicts).
  std::uint64_t cache_scope() const { return cache_scope_; }

  /// Validates a model against the exact (unweakened) formula using IEEE
  /// double evaluation — Algorithm 1's valid(x).
  bool ValidateModel(std::span<const double> model) const;

  /// Classifies the formula skeleton over `boxes` with one batched interval
  /// sweep per atom (EvalTapeIntervalBatch): out[k] is +1 when the formula
  /// certainly holds at every point of box k, -1 when it certainly holds
  /// nowhere in box k, 0 when interval evaluation cannot decide. This is
  /// the engine's cache-hit revalidation primitive — one sweep covers a
  /// whole wave of cached frontier boxes.
  void ClassifyBoxes(std::span<const Box> boxes, std::vector<int>& out) const {
    ClassifyBoxes(boxes, out, SolverWorkspace::ForThisThread());
  }
  void ClassifyBoxes(std::span<const Box> boxes, std::vector<int>& out,
                     SolverWorkspace& ws) const;

 private:
  // Formula skeleton over atom indices (atoms deduplicated by expression
  // identity + relation).
  struct FNode {
    expr::BoolExpr::Kind kind;
    int atom = -1;
    std::vector<FNode> children;
  };
  class Run;  // one Check's state: solver + workspace + stats

  FNode CompileFormula(const expr::BoolExpr& b);
  Tri EvaluateSkeleton(const FNode& node,
                       const std::vector<Tri>& atom_status) const;
  /// Skeleton truth of one box from its per-atom classification statuses.
  Tri EvaluateStatuses(const char* statuses,
                       std::vector<Tri>& atom_status) const;
  /// Exact truth of the skeleton given per-atom IEEE truth values —
  /// equivalent to expr::EvalBool on the original formula.
  bool EvaluateSkeletonExact(const FNode& node,
                             const std::vector<char>& atom_truth) const;
  void CollectRequiredAtoms(const FNode& node, std::vector<int>& out) const;
  /// True when HC4 contraction can narrow anything: some atom lies on every
  /// conjunctive path and at least one round is configured.
  bool CanContract() const {
    return !required_atoms_.empty() && options_.contraction_rounds > 0;
  }

  /// Scope half of the cache key (see cache_scope()); computed once in the
  /// constructor from the contractor tapes, skeleton, and options.
  std::uint64_t ComputeCacheScope() const;

  /// Records `result` for `domain` in the verdict cache when configured and
  /// when the result is reproducible (see SolverOptions::cache).
  /// `deadline_stopped` marks results produced because the wall clock — not
  /// the deterministic node budget — expired; those are never recorded.
  void MaybeRecord(const Box& domain, const CheckResult& result,
                   bool deadline_stopped) const;

  expr::BoolExpr formula_;
  SolverOptions options_;
  std::uint64_t cache_scope_ = 0;
  FNode skeleton_;
  std::vector<AtomContractor> contractors_;  // one per distinct atom
  std::vector<int> required_atoms_;  // atoms on every conjunctive path
  std::vector<char> is_required_;    // atom index -> on a conjunctive path
  std::size_t max_slots_ = 0;        // longest atom tape
};

}  // namespace xcv::solver
