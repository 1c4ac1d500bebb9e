#include "solver/icp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

#include <bit>

#include "cache/verdict_cache.h"
#include "expr/eval.h"
#include "expr/optimize.h"
#include "obs/trace.h"
#include "support/check.h"

namespace xcv::solver {

using expr::BoolExpr;

namespace {
// Presample lattice chunk: bounds the batch scratch to tape slots × kChunk
// doubles.
constexpr std::size_t kPresampleChunk = 1024;
// Lanes in the first wave of every Check; later waves double up to
// SolverOptions::wave_width.
constexpr std::size_t kFirstWaveWidth = 8;
}  // namespace

std::string SatKindName(SatKind kind) {
  switch (kind) {
    case SatKind::kUnsat: return "UNSAT";
    case SatKind::kDeltaSat: return "delta-SAT";
    case SatKind::kTimeout: return "TIMEOUT";
  }
  return "?";
}

DeltaSolver::DeltaSolver(expr::BoolExpr formula, SolverOptions options)
    : formula_(std::move(formula)), options_(options) {
  XCV_CHECK(!formula_.IsNull());
  XCV_CHECK_MSG(options_.delta > 0.0, "delta must be positive");
  XCV_CHECK_MSG(options_.wave_width >= 1, "wave width must be at least 1");
  skeleton_ = CompileFormula(formula_);
  CollectRequiredAtoms(skeleton_, required_atoms_);
  std::sort(required_atoms_.begin(), required_atoms_.end());
  required_atoms_.erase(
      std::unique(required_atoms_.begin(), required_atoms_.end()),
      required_atoms_.end());
  is_required_.assign(contractors_.size(), 0);
  for (int atom : required_atoms_)
    is_required_[static_cast<std::size_t>(atom)] = 1;

  for (const AtomContractor& c : contractors_)
    max_slots_ = std::max(max_slots_, c.tape().size());
  cache_scope_ = ComputeCacheScope();
}

std::uint64_t DeltaSolver::ComputeCacheScope() const {
  using expr::FnvMix;
  // Formula identity: canonical optimized tape of every distinct atom (in
  // compilation order, which is deterministic for a fixed formula) plus the
  // skeleton's shape over atom indices.
  std::uint64_t h = expr::kFnvOffset;
  for (const AtomContractor& c : contractors_) {
    h = FnvMix(h, expr::TapeFingerprint(c.tape()));
    h = FnvMix(h, static_cast<std::uint64_t>(c.rel()));
  }
  auto hash_skeleton = [&h](auto&& self, const FNode& node) -> void {
    h = FnvMix(h, static_cast<std::uint64_t>(node.kind));
    h = FnvMix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(node.atom)));
    h = FnvMix(h, node.children.size());
    for (const FNode& c : node.children) self(self, c);
  };
  hash_skeleton(hash_skeleton, skeleton_);
  // Every verdict-affecting option. wave_width is deliberately absent: it
  // batches evaluation without changing any verdict, model, or node count,
  // so caches stay valid across wave-width changes.
  h = FnvMix(h, std::bit_cast<std::uint64_t>(options_.delta));
  h = FnvMix(h, options_.max_nodes);
  h = FnvMix(h, std::bit_cast<std::uint64_t>(options_.time_budget_seconds));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.contraction_rounds)));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.max_invalid_models)));
  h = FnvMix(h, static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(options_.presample_points)));
  h = FnvMix(h, options_.cache_salt);
  return h;
}

void DeltaSolver::MaybeRecord(const Box& domain, const CheckResult& result,
                              bool deadline_stopped) const {
  if (options_.cache == nullptr) return;
  // Wall-clock-caused outcomes are not reproducible — a rerun (or another
  // machine) could get further. Everything else is a pure function of
  // (formula, options, box) and replays exactly.
  if (deadline_stopped) return;
  cache::CachedVerdict cv;
  switch (result.kind) {
    case SatKind::kUnsat:
      cv.kind = cache::CachedKind::kUnsat;
      break;
    case SatKind::kDeltaSat:
      cv.kind = cache::CachedKind::kDeltaSat;
      cv.model = result.model;
      cv.model_box.assign(result.model_box.dims().begin(),
                          result.model_box.dims().end());
      break;
    case SatKind::kTimeout:
      cv.kind = cache::CachedKind::kTimeout;
      break;
  }
  cv.nodes = result.stats.nodes;
  options_.cache->Store(cache_scope_, domain.dims(), std::move(cv));
}

namespace {

// Atom identity: interned expression id + relation, in one hashable key.
std::uint64_t AtomKey(const expr::Expr& e, expr::Rel rel) {
  return (static_cast<std::uint64_t>(e.id()) << 1) |
         static_cast<std::uint64_t>(rel);
}

}  // namespace

DeltaSolver::FNode DeltaSolver::CompileFormula(const BoolExpr& b) {
  // Dedup map shared across the whole recursive compilation (O(1) per atom;
  // conditions with many repeated atoms used to pay O(n²) scans here).
  std::unordered_map<std::uint64_t, int> atom_index;
  auto compile = [&](auto&& self, const BoolExpr& node_expr) -> FNode {
    FNode node;
    node.kind = node_expr.kind();
    switch (node_expr.kind()) {
      case BoolExpr::Kind::kTrue:
      case BoolExpr::Kind::kFalse:
        return node;
      case BoolExpr::Kind::kAtom: {
        const auto key = AtomKey(node_expr.atom(), node_expr.rel());
        auto [it, inserted] =
            atom_index.emplace(key, static_cast<int>(contractors_.size()));
        if (inserted)
          contractors_.emplace_back(node_expr.atom(), node_expr.rel());
        node.atom = it->second;
        return node;
      }
      case BoolExpr::Kind::kAnd:
      case BoolExpr::Kind::kOr:
        node.children.reserve(node_expr.children().size());
        for (const BoolExpr& c : node_expr.children())
          node.children.push_back(self(self, c));
        return node;
    }
    XCV_CHECK_MSG(false, "unhandled formula kind");
    return node;
  };
  return compile(compile, b);
}

void DeltaSolver::CollectRequiredAtoms(const FNode& node,
                                       std::vector<int>& out) const {
  switch (node.kind) {
    case BoolExpr::Kind::kAtom:
      out.push_back(node.atom);
      return;
    case BoolExpr::Kind::kAnd:
      for (const FNode& c : node.children) CollectRequiredAtoms(c, out);
      return;
    default:
      return;  // atoms under Or are not necessary conditions
  }
}

Tri DeltaSolver::EvaluateSkeleton(
    const FNode& node, const std::vector<Tri>& atom_status) const {
  switch (node.kind) {
    case BoolExpr::Kind::kTrue: return Tri::kTrue;
    case BoolExpr::Kind::kFalse: return Tri::kFalse;
    case BoolExpr::Kind::kAtom:
      return atom_status[static_cast<std::size_t>(node.atom)];
    case BoolExpr::Kind::kAnd: {
      Tri acc = Tri::kTrue;
      for (const FNode& c : node.children) {
        const Tri t = EvaluateSkeleton(c, atom_status);
        if (t == Tri::kFalse) return Tri::kFalse;
        if (t == Tri::kUnknown) acc = Tri::kUnknown;
      }
      return acc;
    }
    case BoolExpr::Kind::kOr: {
      Tri acc = Tri::kFalse;
      for (const FNode& c : node.children) {
        const Tri t = EvaluateSkeleton(c, atom_status);
        if (t == Tri::kTrue) return Tri::kTrue;
        if (t == Tri::kUnknown) acc = Tri::kUnknown;
      }
      return acc;
    }
  }
  return Tri::kUnknown;
}

Tri DeltaSolver::EvaluateStatuses(
    const char* statuses, std::vector<Tri>& atom_status) const {
  atom_status.resize(contractors_.size());
  for (std::size_t a = 0; a < contractors_.size(); ++a) {
    switch (static_cast<AtomContractor::Status>(statuses[a])) {
      case AtomContractor::Status::kCertainlyTrue:
        atom_status[a] = Tri::kTrue;
        break;
      case AtomContractor::Status::kCertainlyFalse:
        atom_status[a] = Tri::kFalse;
        break;
      case AtomContractor::Status::kUnknown:
        atom_status[a] = Tri::kUnknown;
        break;
    }
  }
  return EvaluateSkeleton(skeleton_, atom_status);
}

bool DeltaSolver::ValidateModel(std::span<const double> model) const {
  return expr::EvalBool(formula_, model);
}

bool DeltaSolver::EvaluateSkeletonExact(
    const FNode& node, const std::vector<char>& atom_truth) const {
  switch (node.kind) {
    case BoolExpr::Kind::kTrue: return true;
    case BoolExpr::Kind::kFalse: return false;
    case BoolExpr::Kind::kAtom:
      return atom_truth[static_cast<std::size_t>(node.atom)] != 0;
    case BoolExpr::Kind::kAnd:
      for (const FNode& c : node.children)
        if (!EvaluateSkeletonExact(c, atom_truth)) return false;
      return true;
    case BoolExpr::Kind::kOr:
      for (const FNode& c : node.children)
        if (EvaluateSkeletonExact(c, atom_truth)) return true;
      return false;
  }
  return false;
}

SolverWorkspace& SolverWorkspace::ForThisThread() {
  thread_local SolverWorkspace ws;
  return ws;
}

// One Check (or ClassifyBoxes) call: the immutable solver, the workspace it
// runs on, and the stats it fills. Holds the workspace exclusively for its
// lifetime.
class DeltaSolver::Run {
 public:
  Run(const DeltaSolver& solver, SolverWorkspace& ws, SolverStats* stats)
      : s_(solver), ws_(ws), stats_(stats) {
    XCV_CHECK_MSG(!ws_.busy, "solver workspace used by two calls at once");
    ws_.busy = true;
  }
  ~Run() { ws_.busy = false; }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Presample lattice probing, batched over the atom tapes. Returns true
  /// and fills `result` when a genuine model was found.
  bool PresampleLattice(const Box& domain, CheckResult& result);

  /// Re-keys the frontier and wave buffers for `domain` (waves of at most
  /// `max_lanes` lanes) and pushes the root box.
  void BeginSearch(const Box& domain, std::size_t max_lanes);

  /// Allocates a frontier slot holding ws.tmp_box and marks it
  /// unclassified (sizing the per-slot side arrays as needed).
  BoxStore::Ref NewNodeFromTmp();

  /// Classifies `popped` plus up to width-1 other unclassified stack boxes,
  /// then speculatively expands the subtree below them breadth-first — DFS
  /// alone only ever exposes a couple of unclassified siblings, which would
  /// starve the wide lanes. Each level runs ClassifyContractWave (batched
  /// classify + full HC4 fixpoint precompute); because the fixpoint yields
  /// every surviving lane's final contracted box, the split the pop will
  /// perform is known now, so ExpandWaveChildren materializes the two
  /// halves and they become the next level's wave, doubling until the
  /// level outgrows `width` (total work per call is capped at ~2×width
  /// lanes). Pops later walk this prebuilt subtree in the exact scalar
  /// order; verdicts, boxes, and stats are bit-identical to the scalar path
  /// at every wave width and ISA tier — speculation past an early return
  /// only costs wall time.
  ///
  /// `pops_left` counts the pops the node budget still allows, this one
  /// included: more lanes than that could never all be popped, so neither
  /// a level nor the whole expansion grows past it.
  void ClassifyWave(BoxStore::Ref popped, std::size_t width,
                    std::uint64_t pops_left);

 private:
  /// One batched pass over ws.wave_refs: forward classification sweeps per
  /// atom into the status arena, then the complete rounds × required-atoms
  /// HC4 fixpoint loop over every skeleton-undecided lane — batched forward
  /// + backward sweeps with per-lane masks replicating the scalar loop's
  /// empty/fixpoint early exits — scattering each lane's final box,
  /// emptiness, and contraction-call count into the ref-indexed bwd_*
  /// arenas replayed at pop.
  void ClassifyContractWave();
  /// Pre-splits the surviving lanes of the wave just contracted (skeleton
  /// undecided, not proved empty, wider than delta): bisects each lane's
  /// final box on its widest dimension exactly as pop step 4 will,
  /// allocates the two child slots, records them in the child arena, and
  /// collects them into ws.next_refs as the next expansion level.
  void ExpandWaveChildren();

  const DeltaSolver& s_;
  SolverWorkspace& ws_;
  SolverStats* stats_;  // for measure_phases; null in ClassifyBoxes
};

bool DeltaSolver::Run::PresampleLattice(const Box& domain,
                                        CheckResult& result) {
  const SolverOptions& options = s_.options_;
  const std::size_t dims = domain.size();
  const std::size_t atoms = s_.contractors_.size();
  const auto per_dim = static_cast<std::size_t>(std::max(
      2.0,
      std::floor(std::pow(static_cast<double>(options.presample_points),
                          1.0 / static_cast<double>(dims)))));
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) total *= per_dim;

  // Deterministic interior lattice, laid out structure-of-arrays so each
  // atom tape runs once over all points instead of once per point.
  auto& coords = ws_.coords;
  if (coords.size() < dims) coords.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) coords[d].resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t rest = i;
    for (std::size_t d = 0; d < dims; ++d) {
      const std::size_t idx = rest % per_dim;
      rest /= per_dim;
      const double fraction =
          (static_cast<double>(idx) + 0.5) / static_cast<double>(per_dim);
      coords[d][i] = domain[d].lo() + fraction * domain[d].Width();
    }
  }

  // The lattice never exceeds presample_points points, so the chunk
  // reservation is capped accordingly.
  ws_.batch.Reserve(
      s_.max_slots_,
      std::min(kPresampleChunk,
               static_cast<std::size_t>(options.presample_points)));
  auto& values = ws_.values;
  if (values.size() < atoms) values.resize(atoms);
  ws_.inputs.resize(dims);
  for (std::size_t a = 0; a < atoms; ++a) {
    values[a].resize(total);
    const expr::Tape& tape = s_.contractors_[a].tape();
    for (std::size_t start = 0; start < total; start += kPresampleChunk) {
      const std::size_t n = std::min(kPresampleChunk, total - start);
      for (std::size_t d = 0; d < dims; ++d)
        ws_.inputs[d] = coords[d].data() + start;
      expr::EvalTapeBatch(tape, ws_.inputs, n, values[a].data() + start,
                          ws_.batch);
    }
  }

  std::vector<char>& atom_truth = ws_.atom_truth;
  atom_truth.resize(atoms);
  std::vector<double>& point = ws_.point;
  point.resize(dims);
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t a = 0; a < atoms; ++a) {
      const double v = values[a][i];
      atom_truth[a] =
          s_.contractors_[a].rel() == expr::Rel::kLe ? v <= 0.0 : v < 0.0;
    }
    if (!s_.EvaluateSkeletonExact(s_.skeleton_, atom_truth)) continue;
    for (std::size_t d = 0; d < dims; ++d) point[d] = coords[d][i];
    // The batch screen ran on optimized tapes; confirm with the exact
    // evaluator before reporting, so returned models are genuine under
    // IEEE semantics exactly as before.
    if (!expr::EvalBool(s_.formula_, point)) continue;
    result.kind = SatKind::kDeltaSat;
    result.model = point;
    std::vector<Interval> dims_iv;
    dims_iv.reserve(dims);
    for (double v : point) dims_iv.emplace_back(v);
    result.model_box = Box(std::move(dims_iv));
    return true;
  }
  return false;
}

void DeltaSolver::Run::BeginSearch(const Box& domain, std::size_t max_lanes) {
  // Dimensions and atom counts change between calls (different domains,
  // different solvers on this workspace), so every buffer is re-keyed here;
  // the memory is retained across calls.
  const std::size_t dims = domain.size();
  SolverWorkspace& ws = ws_;
  ws.store.Reset(dims);
  ws.stack.clear();
  ws.classified.clear();
  ws.status_arena.clear();
  ws.bwd_valid.clear();
  ws.bwd_empty_arena.clear();
  ws.bwd_count_arena.clear();
  ws.bwd_box_arena.clear();
  ws.child_arena.clear();

  // Reserve the wave scratch for the widest wave this call can run, so the
  // ramp never regrows it mid-search (reserve is a no-op once warm).
  const std::size_t stride = max_lanes;
  ws.wave_stride = stride;
  ws.interval_batch.Reserve(s_.max_slots_, stride);
  const std::size_t nreq = s_.required_atoms_.size();
  if (ws.req_batch.size() < nreq) ws.req_batch.resize(nreq);
  for (std::size_t r = 0; r < nreq; ++r)
    ws.req_batch[r].Reserve(
        s_.contractors_[static_cast<std::size_t>(s_.required_atoms_[r])]
            .tape()
            .size(),
        stride);
  ws.backward.Reserve(s_.max_slots_, stride);
  ws.wave_lo.resize(dims * stride);
  ws.wave_hi.resize(dims * stride);
  ws.bwd_lo.resize(dims * stride);
  ws.bwd_hi.resize(dims * stride);
  ws.wave_lo_ptrs.resize(dims);
  ws.wave_hi_ptrs.resize(dims);
  ws.bwd_lo_ptrs.resize(dims);
  ws.bwd_hi_ptrs.resize(dims);
  ws.bwd_clo_ptrs.resize(dims);
  ws.bwd_chi_ptrs.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    ws.wave_lo_ptrs[d] = ws.wave_lo.data() + d * stride;
    ws.wave_hi_ptrs[d] = ws.wave_hi.data() + d * stride;
    ws.bwd_clo_ptrs[d] = ws.bwd_lo_ptrs[d] = ws.bwd_lo.data() + d * stride;
    ws.bwd_chi_ptrs[d] = ws.bwd_hi_ptrs[d] = ws.bwd_hi.data() + d * stride;
  }
  ws.wave_active.resize(stride);
  ws.wave_any.resize(stride);
  ws.wave_done.resize(stride);
  ws.wave_empty.resize(stride);
  ws.wave_unknown.resize(stride);
  ws.wave_count.resize(stride);
  ws.wave_outcome.resize(stride);

  ws.tmp_box.assign(domain.dims().begin(), domain.dims().end());
  ws.stack.push_back(NewNodeFromTmp());
}

BoxStore::Ref DeltaSolver::Run::NewNodeFromTmp() {
  SolverWorkspace& ws = ws_;
  const BoxStore::Ref ref = ws.store.AllocateCopy(ws.tmp_box);
  const std::size_t atoms = s_.contractors_.size();
  const std::size_t capacity = ws.store.capacity();
  if (ws.classified.size() < capacity) {
    ws.classified.resize(capacity, 0);
    ws.status_arena.resize(capacity * atoms);
    ws.bwd_valid.resize(capacity, 0);
    ws.bwd_empty_arena.resize(capacity);
    ws.bwd_count_arena.resize(capacity);
    ws.bwd_box_arena.resize(capacity * ws.store.dims() * 2);
    ws.child_arena.resize(capacity * 2, -1);
  }
  const auto r = static_cast<std::size_t>(ref);
  ws.classified[r] = 0;
  ws.child_arena[r * 2] = -1;
  ws.child_arena[r * 2 + 1] = -1;
  return ref;
}

void DeltaSolver::Run::ClassifyWave(BoxStore::Ref popped, std::size_t width,
                                    std::uint64_t pops_left) {
  width = static_cast<std::size_t>(std::min<std::uint64_t>(width, pops_left));

  // Level 0: the popped box plus the unclassified open boxes nearest the
  // top of the stack. Those boxes will be popped later with these exact
  // bounds (stack entries are immutable until popped), so classifying them
  // early is pure speculation-free batching: after a split, the two fresh
  // children ride the same sweep, and deeper stack boxes fill the
  // remaining lanes.
  SolverWorkspace& ws = ws_;
  ws.wave_refs.clear();
  ws.wave_refs.push_back(popped);
  for (auto it = ws.stack.rbegin();
       it != ws.stack.rend() && ws.wave_refs.size() < width; ++it)
    if (!ws.classified[static_cast<std::size_t>(*it)])
      ws.wave_refs.push_back(*it);

  // Speculative breadth-first descent. DFS alone only ever exposes one or
  // two unclassified siblings per pop, which would starve the wide lanes —
  // but the fixpoint precompute already yields each surviving lane's final
  // contracted box, so the split the pop will perform is known right now.
  // Materialize the two halves and classify the children as the next wave,
  // doubling the level until it outgrows the width (the `expanded` cap
  // bounds work per call when prunes keep the level narrow). Pops later
  // walk this prebuilt subtree in the exact scalar order: the tree is the
  // future search tree, so nothing here is wasted except past an early
  // return, and verdicts, boxes, and stats are byte-identical throughout.
  std::size_t expanded = 0;
  while (!ws.wave_refs.empty() && ws.wave_refs.size() <= width &&
         expanded < 2 * width && expanded + ws.wave_refs.size() <= pops_left) {
    ClassifyContractWave();
    expanded += ws.wave_refs.size();
    ExpandWaveChildren();
    ws.wave_refs.swap(ws.next_refs);
  }
}

void DeltaSolver::Run::ClassifyContractWave() {
  SolverWorkspace& ws = ws_;
  const SolverOptions& options = s_.options_;
  const std::size_t stride = ws.wave_stride;
  const std::size_t k_boxes = ws.wave_refs.size();
  const std::size_t dims = ws.store.dims();
  for (std::size_t d = 0; d < dims; ++d) {
    double* lo = ws.wave_lo.data() + d * stride;
    double* hi = ws.wave_hi.data() + d * stride;
    for (std::size_t k = 0; k < k_boxes; ++k) {
      const Interval& iv = ws.store.View(ws.wave_refs[k])[d];
      lo[k] = iv.lo();
      hi[k] = iv.hi();
    }
  }

  const std::size_t atoms = s_.contractors_.size();
  const std::size_t nreq = s_.required_atoms_.size();
  const bool measure = options.measure_phases && stats_ != nullptr;
  Stopwatch classify_watch;
  // Per-wave (not per-node) phase spans: one relaxed load when no trace is
  // armed, so the kernels stay clean of clock reads in normal runs.
  obs::TraceRecorder& trec = obs::TraceRecorder::Global();
  const bool tracing = trec.armed();
  const std::uint64_t trace_t0 = tracing ? trec.NowUs() : 0;

  // Forward sweeps. Required atoms fill their own scratch so the per-slot
  // lanes survive until the backward pass below; the rest share one.
  std::size_t r = 0;
  for (std::size_t a = 0; a < atoms; ++a) {
    const AtomContractor& contractor = s_.contractors_[a];
    const expr::Tape& tape = contractor.tape();
    expr::TapeIntervalBatchScratch& fb =
        s_.is_required_[a] ? ws.req_batch[r] : ws.interval_batch;
    expr::EvalTapeIntervalBatch(tape, ws.wave_lo_ptrs, ws.wave_hi_ptrs,
                                k_boxes, fb);
    const auto root = static_cast<std::size_t>(tape.root());
    for (std::size_t k = 0; k < k_boxes; ++k) {
      ws.status_arena[static_cast<std::size_t>(ws.wave_refs[k]) * atoms + a] =
          static_cast<char>(contractor.ClassifyRoot(fb.At(root, k)));
    }
    r += s_.is_required_[a];
  }
  for (std::size_t k = 0; k < k_boxes; ++k)
    ws.classified[static_cast<std::size_t>(ws.wave_refs[k])] = 1;
  if (measure) stats_->classify_seconds += classify_watch.ElapsedSeconds();
  if (tracing)
    trec.RecordComplete("classify", "xcv", trace_t0,
                        trec.NowUs() - trace_t0,
                        "\"boxes\":" + std::to_string(k_boxes));

  // Batched HC4 fixpoint over every undecided lane: the exact rounds ×
  // required-atoms loop a pop would run per box, precomputed for the whole
  // wave and replayed at pop. Per-lane masks replicate the scalar control
  // flow — a lane stops taking sweeps the moment its box proves empty, and
  // leaves the loop after a round with no contraction — so each lane's
  // narrowing sequence, final box, and contraction-call count are exactly
  // what the scalar loop (AtomContractor::Contract per required atom)
  // produces for that box.
  Stopwatch contract_watch;
  const std::uint64_t trace_t1 = tracing ? trec.NowUs() : 0;
  std::size_t undecided = 0;
  const bool can_precompute = s_.CanContract();
  for (std::size_t k = 0; k < k_boxes; ++k) {
    const auto ref_k = static_cast<std::size_t>(ws.wave_refs[k]);
    // Decided lanes are pruned or accepted at pop before any contraction;
    // only Tri::kUnknown lanes consult the arena.
    const bool unknown =
        s_.EvaluateStatuses(ws.status_arena.data() + ref_k * atoms,
                            ws.atom_status) == Tri::kUnknown;
    ws.wave_done[k] = !unknown;
    ws.wave_unknown[k] = unknown;
    ws.wave_empty[k] = 0;
    ws.wave_count[k] = 0;
    ws.bwd_valid[ref_k] = unknown && can_precompute;
    undecided += unknown;
  }
  if (!can_precompute || undecided == 0) {
    if (measure) stats_->contract_seconds += contract_watch.ElapsedSeconds();
    if (tracing)
      trec.RecordComplete("contract", "xcv", trace_t1,
                          trec.NowUs() - trace_t1,
                          "\"boxes\":" + std::to_string(k_boxes));
    return;
  }

  // Working boxes: start from the wave bounds, narrow in place.
  std::memcpy(ws.bwd_lo.data(), ws.wave_lo.data(),
              dims * stride * sizeof(double));
  std::memcpy(ws.bwd_hi.data(), ws.wave_hi.data(),
              dims * stride * sizeof(double));

  // While no lane has narrowed, the classification sweeps in req_batch are
  // the forward enclosures of the current boxes; afterwards each atom's
  // sweep is re-run on the narrowed boxes (bit-identical for lanes whose
  // box did not change — same inputs, same kernels).
  bool wave_untouched = true;
  for (int round = 0; round < options.contraction_rounds; ++round) {
    std::size_t in_round = 0;
    for (std::size_t k = 0; k < k_boxes; ++k) {
      ws.wave_active[k] = !ws.wave_done[k];
      ws.wave_any[k] = 0;
      in_round += ws.wave_active[k];
    }
    if (in_round == 0) break;
    for (std::size_t rr = 0; rr < nreq; ++rr) {
      const auto a = static_cast<std::size_t>(s_.required_atoms_[rr]);
      const expr::Tape& tape = s_.contractors_[a].tape();
      expr::TapeIntervalBatchScratch* fwd = &ws.req_batch[rr];
      if (round != 0 || !wave_untouched) {
        fwd = &ws.interval_batch;
        expr::EvalTapeIntervalBatch(tape, ws.bwd_clo_ptrs, ws.bwd_chi_ptrs,
                                    k_boxes, *fwd);
      }
      for (std::size_t k = 0; k < k_boxes; ++k)
        ws.wave_count[k] += ws.wave_active[k];
      expr::ContractTapeIntervalBatch(tape, *fwd, ws.bwd_lo_ptrs,
                                      ws.bwd_hi_ptrs, k_boxes,
                                      ws.wave_active.data(),
                                      ws.wave_outcome.data(), ws.backward);
      for (std::size_t k = 0; k < k_boxes; ++k) {
        if (!ws.wave_active[k]) continue;
        if (ws.wave_outcome[k] == expr::kContractLaneEmpty) {
          ws.wave_empty[k] = 1;
          ws.wave_done[k] = 1;
          ws.wave_active[k] = 0;  // the scalar loop breaks out on empty
        } else if (ws.wave_outcome[k] == expr::kContractLaneContracted) {
          ws.wave_any[k] = 1;
          wave_untouched = false;
        }
      }
    }
    for (std::size_t k = 0; k < k_boxes; ++k)
      if (ws.wave_active[k] && !ws.wave_any[k]) ws.wave_done[k] = 1;
  }

  for (std::size_t k = 0; k < k_boxes; ++k) {
    const auto ref_k = static_cast<std::size_t>(ws.wave_refs[k]);
    if (!ws.bwd_valid[ref_k]) continue;
    ws.bwd_empty_arena[ref_k] = ws.wave_empty[k];
    ws.bwd_count_arena[ref_k] = ws.wave_count[k];
    if (!ws.wave_empty[k]) {
      double* dst = ws.bwd_box_arena.data() + ref_k * dims * 2;
      for (std::size_t d = 0; d < dims; ++d) {
        dst[2 * d] = ws.bwd_lo[d * stride + k];
        dst[2 * d + 1] = ws.bwd_hi[d * stride + k];
      }
    }
  }
  if (measure) stats_->contract_seconds += contract_watch.ElapsedSeconds();
  if (tracing)
    trec.RecordComplete("contract", "xcv", trace_t1,
                        trec.NowUs() - trace_t1,
                        "\"boxes\":" + std::to_string(k_boxes));
}

void DeltaSolver::Run::ExpandWaveChildren() {
  SolverWorkspace& ws = ws_;
  ws.next_refs.clear();
  const std::size_t dims = ws.store.dims();
  const std::size_t k_boxes = ws.wave_refs.size();
  for (std::size_t k = 0; k < k_boxes; ++k) {
    // Decided lanes are pruned or accepted at pop before any split, empty
    // lanes are pruned after the arena replay, and delta-floor lanes
    // terminate — only the rest reach pop step 4's bisect.
    if (!ws.wave_unknown[k]) continue;
    const BoxStore::Ref ref = ws.wave_refs[k];
    const auto ref_k = static_cast<std::size_t>(ref);
    // The box the pop will bisect: the fixpoint's final box when one was
    // precomputed, the original bounds otherwise (contraction disabled).
    // Copied into tmp_box before allocating — NewNodeFromTmp can grow the
    // arenas and the store.
    if (ws.bwd_valid[ref_k] != 0) {
      if (ws.bwd_empty_arena[ref_k] != 0) continue;
      const double* src = ws.bwd_box_arena.data() + ref_k * dims * 2;
      ws.tmp_box.resize(dims);
      for (std::size_t d = 0; d < dims; ++d)
        ws.tmp_box[d] = Interval(src[2 * d], src[2 * d + 1]);
    } else {
      const std::span<Interval> view = ws.store.View(ref);
      ws.tmp_box.assign(view.begin(), view.end());
    }
    if (solver::MaxWidth(ws.tmp_box) <= s_.options_.delta) continue;
    const std::size_t widest = solver::WidestDim(ws.tmp_box);
    Interval left, right;
    ws.tmp_box[widest].Bisect(&left, &right);
    ws.tmp_box[widest] = right;
    const BoxStore::Ref right_ref = NewNodeFromTmp();
    ws.tmp_box[widest] = left;
    const BoxStore::Ref left_ref = NewNodeFromTmp();
    ws.child_arena[ref_k * 2] = left_ref;
    ws.child_arena[ref_k * 2 + 1] = right_ref;
    ws.next_refs.push_back(left_ref);
    ws.next_refs.push_back(right_ref);
  }
}

CheckResult DeltaSolver::Check(const Box& domain, bool consult_cache,
                               SolverWorkspace& ws) const {
  CheckResult result;
  Stopwatch watch;
  const Deadline deadline =
      std::isfinite(options_.time_budget_seconds)
          ? Deadline::After(options_.time_budget_seconds)
          : Deadline::Never();

  if (domain.AnyEmpty()) {
    result.kind = SatKind::kUnsat;
    result.stats.seconds = watch.ElapsedSeconds();
    return result;
  }

  // Verdict cache: an exact (scope, box) hit replays the recorded result
  // without any solver work. Callers that must not trust a hit blindly
  // (the verifier engine) revalidate and re-Check with consult_cache=false
  // on contradiction.
  if (consult_cache && options_.cache != nullptr) {
    cache::CachedVerdict cv;
    if (options_.cache->Lookup(cache_scope_, domain.dims(), &cv)) {
      switch (cv.kind) {
        case cache::CachedKind::kUnsat: result.kind = SatKind::kUnsat; break;
        case cache::CachedKind::kDeltaSat:
          result.kind = SatKind::kDeltaSat;
          result.model = std::move(cv.model);
          result.model_box = Box(std::move(cv.model_box));
          break;
        case cache::CachedKind::kTimeout:
          result.kind = SatKind::kTimeout;
          break;
      }
      result.stats.nodes = cv.nodes;
      result.from_cache = true;
      result.stats.seconds = watch.ElapsedSeconds();
      return result;
    }
  }

  Run run(*this, ws, &result.stats);

  // Model guessing: probe an interior lattice before any interval work. The
  // lattice is evaluated in batch over the atoms' optimized tapes; hits are
  // confirmed with the exact evaluator before being reported.
  if (options_.presample_points > 0 && run.PresampleLattice(domain, result)) {
    MaybeRecord(domain, result, /*deadline_stopped=*/false);
    result.stats.seconds = watch.ElapsedSeconds();
    return result;
  }

  // Wave widths ramp from kFirstWaveWidth up to the wave_width cap, and a
  // wave never classifies more boxes than the node budget can still pop.
  const auto cap = static_cast<std::size_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(options_.wave_width),
      std::max<std::uint64_t>(options_.max_nodes, 1)));
  std::size_t ramp = std::min<std::size_t>(kFirstWaveWidth, cap);
  run.BeginSearch(domain, cap);

  const std::size_t dims = domain.size();
  const std::size_t atoms = contractors_.size();
  const bool can_contract = CanContract();
  int invalid_candidates = 0;

  while (!ws.stack.empty()) {
    if (result.stats.nodes >= options_.max_nodes ||
        (result.stats.nodes % 128 == 0 && deadline.Expired())) {
      // Budget exhausted. A set-aside invalid candidate is still an
      // unrefuted delta-box, which outranks a plain timeout.
      const bool by_nodes = result.stats.nodes >= options_.max_nodes;
      if (invalid_candidates > 0) {
        result.kind = SatKind::kDeltaSat;
        result.model = ws.invalid_model;
        result.model_box = Box(std::span<const Interval>(ws.invalid_box));
      } else {
        result.kind = SatKind::kTimeout;
      }
      // Node-budget exhaustion is deterministic (max_nodes is in the scope
      // hash) and safe to replay; a wall-clock stop is not.
      MaybeRecord(domain, result, /*deadline_stopped=*/!by_nodes);
      result.stats.seconds = watch.ElapsedSeconds();
      return result;
    }
    const BoxStore::Ref ref = ws.stack.back();
    ws.stack.pop_back();
    ++result.stats.nodes;
    const auto r = static_cast<std::size_t>(ref);

    // 1) Classify every atom over the box; prune / accept by certainty.
    // Unclassified pops trigger a batched wave (which also covers upcoming
    // pops); otherwise the statuses were computed by an earlier wave on
    // these exact bounds — bit-identical either way, and identical to the
    // scalar per-box classification.
    if (!ws.classified[r]) {
      run.ClassifyWave(ref, ramp,
                       options_.max_nodes - result.stats.nodes + 1);
      ramp = std::min(2 * ramp, cap);
    }
    const Tri truth =
        EvaluateStatuses(ws.status_arena.data() + r * atoms, ws.atom_status);
    if (truth == Tri::kFalse) {
      ++result.stats.prunes;
      ws.store.Release(ref);
      continue;
    }
    const std::span<Interval> box = ws.store.View(ref);
    if (truth == Tri::kTrue) {
      // Certainly satisfiable: the midpoint is a genuine model.
      result.kind = SatKind::kDeltaSat;
      result.model = solver::Midpoint(box);
      result.model_box = Box(std::span<const Interval>(box));
      MaybeRecord(domain, result, /*deadline_stopped=*/false);
      result.stats.seconds = watch.ElapsedSeconds();
      return result;
    }

    // 2) Contract with necessary atoms (HC4 fixpoint rounds): replay the
    // fixpoint the box's wave precomputed — final box, emptiness, and
    // contraction-call count. Every undecided pop was a lane of some wave,
    // so the arena is always filled when contraction can run at all; when
    // it cannot (no required atoms, or zero rounds) HC4 would do nothing.
    bool empty = false;
    if (can_contract) {
      const bool measure = options_.measure_phases;
      Stopwatch contract_watch;
      XCV_CHECK_MSG(ws.bwd_valid[r] != 0,
                    "undecided box popped without a precomputed fixpoint");
      result.stats.contractions += ws.bwd_count_arena[r];
      if (ws.bwd_empty_arena[r] != 0) {
        empty = true;
      } else {
        const double* src = ws.bwd_box_arena.data() + r * dims * 2;
        for (std::size_t d = 0; d < dims; ++d)
          box[d] = Interval(src[2 * d], src[2 * d + 1]);
      }
      if (measure)
        result.stats.contract_seconds += contract_watch.ElapsedSeconds();
    }
    if (empty) {
      ++result.stats.prunes;
      ws.store.Release(ref);
      continue;
    }

    // 3) Precision floor: delta-sat candidate on the (possibly contracted)
    // box. If the midpoint fails exact validation, remember it but keep
    // searching (bounded) for a genuinely satisfying box — this isolates
    // counterexample corners without changing the delta semantics: when the
    // rejection budget is exhausted, the invalid model is reported, which
    // is the paper's "inconclusive" path.
    if (solver::MaxWidth(box) <= options_.delta) {
      ws.point.resize(dims);
      for (std::size_t d = 0; d < dims; ++d) ws.point[d] = box[d].Midpoint();
      if (expr::EvalBool(formula_, ws.point) ||
          invalid_candidates >= options_.max_invalid_models) {
        result.kind = SatKind::kDeltaSat;
        result.model = ws.point;
        result.model_box = Box(std::span<const Interval>(box));
        MaybeRecord(domain, result, /*deadline_stopped=*/false);
        result.stats.seconds = watch.ElapsedSeconds();
        return result;
      }
      ++invalid_candidates;
      ws.invalid_model.assign(ws.point.begin(), ws.point.end());
      ws.invalid_box.assign(box.begin(), box.end());
      ws.store.Release(ref);
      continue;
    }

    // 4) Branch on the widest dimension (LIFO: depth-first). Wave-expanded
    // boxes already carry their two halves — exact bit-copies of the split
    // below, materialized from the precomputed fixpoint box — so push them
    // directly. The on-the-spot bisect covers boxes no expansion reached
    // (the expansion level outgrew the wave).
    const std::size_t kids = r * 2;
    if (ws.child_arena[kids] >= 0) {
      const BoxStore::Ref left_ref = ws.child_arena[kids];
      const BoxStore::Ref right_ref = ws.child_arena[kids + 1];
      ws.store.Release(ref);
      ws.stack.push_back(right_ref);
      ws.stack.push_back(left_ref);
      continue;
    }
    const std::size_t widest = solver::WidestDim(box);
    ws.tmp_box.assign(box.begin(), box.end());
    ws.store.Release(ref);
    Interval left, right;
    ws.tmp_box[widest].Bisect(&left, &right);
    ws.tmp_box[widest] = right;
    const BoxStore::Ref right_ref = run.NewNodeFromTmp();
    ws.tmp_box[widest] = left;
    const BoxStore::Ref left_ref = run.NewNodeFromTmp();
    ws.stack.push_back(right_ref);
    ws.stack.push_back(left_ref);
  }

  // Stack exhausted. If invalid delta-sat candidates were set aside, the
  // honest answer is still delta-sat (their boxes could not be refuted at
  // precision delta); report the last one. Otherwise every box was pruned:
  // UNSAT.
  if (invalid_candidates > 0) {
    result.kind = SatKind::kDeltaSat;
    result.model = ws.invalid_model;
    result.model_box = Box(std::span<const Interval>(ws.invalid_box));
  } else {
    result.kind = SatKind::kUnsat;
  }
  MaybeRecord(domain, result, /*deadline_stopped=*/false);
  result.stats.seconds = watch.ElapsedSeconds();
  return result;
}

void DeltaSolver::ClassifyBoxes(std::span<const Box> boxes,
                                std::vector<int>& out,
                                SolverWorkspace& ws) const {
  const std::size_t n = boxes.size();
  out.assign(n, 0);
  if (n == 0) return;
  Run run(*this, ws, nullptr);
  const std::size_t dims = boxes[0].size();
  const std::size_t atoms = contractors_.size();

  // SoA gather into the revalidation lanes (grown monotonically).
  ws.reval_lo.resize(dims * n);
  ws.reval_hi.resize(dims * n);
  ws.reval_lo_ptrs.resize(dims);
  ws.reval_hi_ptrs.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    double* lo = ws.reval_lo.data() + d * n;
    double* hi = ws.reval_hi.data() + d * n;
    for (std::size_t k = 0; k < n; ++k) {
      XCV_DCHECK(boxes[k].size() == dims);
      lo[k] = boxes[k][d].lo();
      hi[k] = boxes[k][d].hi();
    }
    ws.reval_lo_ptrs[d] = lo;
    ws.reval_hi_ptrs[d] = hi;
  }

  // One batched sweep per atom, statuses per (box, atom).
  std::vector<char>& status = ws.reval_status;
  status.resize(n * atoms);
  for (std::size_t a = 0; a < atoms; ++a) {
    const expr::Tape& tape = contractors_[a].tape();
    expr::EvalTapeIntervalBatch(tape, ws.reval_lo_ptrs, ws.reval_hi_ptrs, n,
                                ws.interval_batch);
    const auto root = static_cast<std::size_t>(tape.root());
    for (std::size_t k = 0; k < n; ++k)
      status[k * atoms + a] = static_cast<char>(
          contractors_[a].ClassifyRoot(ws.interval_batch.At(root, k)));
  }

  for (std::size_t k = 0; k < n; ++k) {
    const Tri truth = EvaluateStatuses(status.data() + k * atoms,
                                       ws.atom_status);
    out[k] = truth == Tri::kTrue ? 1 : truth == Tri::kFalse ? -1 : 0;
  }
}

}  // namespace xcv::solver
