#include "verifier/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "expr/eval.h"
#include "expr/optimize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace xcv::verifier {

using solver::Box;
using solver::CheckResult;
using solver::DeltaSolver;
using solver::SatKind;

namespace {

// Large enough to outrank any box width on the paper domains (≤ 5 per
// axis), small enough to keep widest-first ordering among suspects.
constexpr double kSuspectBoost = 1e6;

struct OpenBoxLess {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;  // earlier submission first among ties
  }
};

bool LexLess(const std::vector<double>& a, const std::vector<double>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Strict total order on boxes of one partition: lexicographic on
// (lo, hi) per dimension. Disjoint partition leaves never tie.
bool BoxLess(const Box& a, const Box& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].lo() != b[i].lo()) return a[i].lo() < b[i].lo();
    if (a[i].hi() != b[i].hi()) return a[i].hi() < b[i].hi();
  }
  return a.size() < b.size();
}

// Observability instruments (src/obs/metrics.h). Each accessor resolves
// its registry slot once into a function-local static; after that an
// increment is one relaxed fetch_add — or one relaxed load when metrics
// are disabled. These mirror (never replace) the report counters: the
// fetch_adds on cache_hits_/solver_calls_/... below stay the source of
// truth for verdicts and CSVs.
obs::Counter& CacheLookupCounter(const char* outcome) {
  static const char* kHelp =
      "Verdict-cache lookups by outcome (mirrors the report's "
      "cache_hits/cache_misses/cache_rejected columns).";
  static obs::Counter& hit = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"hit"});
  static obs::Counter& miss = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"miss"});
  static obs::Counter& rejected = obs::Registry::Global().GetCounter(
      "xcv_cache_lookups_total", kHelp, {"outcome"}, {"rejected"});
  if (outcome[0] == 'h') return hit;
  if (outcome[0] == 'm') return miss;
  return rejected;
}

obs::Counter& SolverCallCounter(SatKind kind) {
  static const char* kHelp =
      "DeltaSolver::Check invocations by result (sums to the report's "
      "solver_calls column; result=\"timeout\" is solver_timeouts).";
  static obs::Counter& unsat = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"unsat"});
  static obs::Counter& delta_sat = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"delta_sat"});
  static obs::Counter& timeout = obs::Registry::Global().GetCounter(
      "xcv_solver_calls_total", kHelp, {"result"}, {"timeout"});
  switch (kind) {
    case SatKind::kUnsat: return unsat;
    case SatKind::kDeltaSat: return delta_sat;
    case SatKind::kTimeout: return timeout;
  }
  return timeout;
}

void ObserveSolverStats(const solver::SolverStats& stats) {
  static obs::Counter& nodes = obs::Registry::Global().GetCounter(
      "xcv_solver_nodes_total", "ICP boxes popped across all solves.");
  static obs::Counter& contractions = obs::Registry::Global().GetCounter(
      "xcv_solver_contractions_total", "HC4 contraction passes executed.");
  static obs::Counter& prunes = obs::Registry::Global().GetCounter(
      "xcv_solver_prunes_total",
      "Boxes discarded by certainty or emptiness.");
  static const char* kPhaseHelp =
      "Per-phase solver seconds (populated only when measure_phases is "
      "on; see SolverOptions).";
  static obs::Counter& classify = obs::Registry::Global().GetCounter(
      "xcv_solver_phase_seconds_total", kPhaseHelp, {"phase"}, {"classify"});
  static obs::Counter& contract = obs::Registry::Global().GetCounter(
      "xcv_solver_phase_seconds_total", kPhaseHelp, {"phase"}, {"contract"});
  nodes.Add(static_cast<double>(stats.nodes));
  contractions.Add(static_cast<double>(stats.contractions));
  prunes.Add(static_cast<double>(stats.prunes));
  if (stats.classify_seconds > 0.0) classify.Add(stats.classify_seconds);
  if (stats.contract_seconds > 0.0) contract.Add(stats.contract_seconds);
}

obs::Counter& CacheRevalidationCounter() {
  static obs::Counter& c = obs::Registry::Global().GetCounter(
      "xcv_cache_revalidations_total",
      "Batched forward sweeps run to revalidate cached verdicts.");
  return c;
}

}  // namespace

double FrontierPriority(FrontierStrategy strategy,
                        std::span<const Interval> box, bool suspect,
                        std::uint64_t seq) {
  switch (strategy) {
    case FrontierStrategy::kWidestFirst:
      return solver::MaxWidth(box);
    case FrontierStrategy::kSuspectFirst:
      return solver::MaxWidth(box) + (suspect ? kSuspectBoost : 0.0);
    case FrontierStrategy::kFifo:
      return -static_cast<double>(seq);
  }
  return 0.0;
}

void CanonicalizeReport(VerificationReport& report) {
  std::sort(report.leaves.begin(), report.leaves.end(),
            [](const Region& a, const Region& b) {
              return BoxLess(a.box, b.box);
            });
  std::sort(report.witnesses.begin(), report.witnesses.end(), LexLess);
}

// ---- Report union (distributed shard merge) ---------------------------------

namespace {

// Endpoint identity for union dedup is bit-pattern identity (-0.0 ≠ 0.0) —
// solver::SameBoxBits, the same comparison the verdict-cache keys use:
// shard resumes regenerate the exact boxes the splitting arithmetic
// produced.
bool SameBoxBits(const Box& a, const Box& b) {
  return solver::SameBoxBits(a.dims(), b.dims());
}

std::uint64_t BoxBitsHash(const Box& box) {
  std::uint64_t h = expr::FnvMix(expr::kFnvOffset, box.size());
  for (std::size_t i = 0; i < box.size(); ++i) {
    h = expr::FnvMix(h, std::bit_cast<std::uint64_t>(box[i].lo()));
    h = expr::FnvMix(h, std::bit_cast<std::uint64_t>(box[i].hi()));
  }
  return h;
}

}  // namespace

int RegionStatusPrecedence(RegionStatus status) {
  switch (status) {
    case RegionStatus::kCounterexample: return 3;  // delta-sat, valid model
    case RegionStatus::kInconclusive: return 2;    // delta-sat, invalid model
    case RegionStatus::kVerified: return 1;        // unsat
    case RegionStatus::kTimeout: return 0;
  }
  return 0;
}

std::size_t MergeReportInto(VerificationReport& into,
                            VerificationReport&& from) {
  into.solver_calls += from.solver_calls;
  into.solver_timeouts += from.solver_timeouts;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.cache_rejected += from.cache_rejected;
  into.seconds += from.seconds;
  for (auto& w : from.witnesses) into.witnesses.push_back(std::move(w));

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_bits;
  by_bits.reserve(into.leaves.size());
  for (std::size_t i = 0; i < into.leaves.size(); ++i)
    by_bits[BoxBitsHash(into.leaves[i].box)].push_back(i);

  std::size_t dropped = 0;
  for (Region& leaf : from.leaves) {
    Region* existing = nullptr;
    auto it = by_bits.find(BoxBitsHash(leaf.box));
    if (it != by_bits.end()) {
      for (std::size_t i : it->second) {
        if (SameBoxBits(into.leaves[i].box, leaf.box)) {
          existing = &into.leaves[i];
          break;
        }
      }
    }
    if (existing == nullptr) {
      by_bits[BoxBitsHash(leaf.box)].push_back(into.leaves.size());
      into.leaves.push_back(std::move(leaf));
      continue;
    }
    ++dropped;
    if (RegionStatusPrecedence(leaf.status) >
        RegionStatusPrecedence(existing->status))
      *existing = std::move(leaf);
  }
  return dropped;
}

std::size_t CanonicalizeOpenBoxes(std::vector<solver::Box>& open,
                                  const VerificationReport& report) {
  std::unordered_map<std::uint64_t, std::vector<const Box*>> decided;
  decided.reserve(report.leaves.size());
  for (const Region& leaf : report.leaves)
    decided[BoxBitsHash(leaf.box)].push_back(&leaf.box);

  auto leaf_decided = [&decided](const Box& box) {
    const auto it = decided.find(BoxBitsHash(box));
    if (it == decided.end()) return false;
    for (const Box* b : it->second)
      if (SameBoxBits(*b, box)) return true;
    return false;
  };

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> kept_bits;
  std::vector<Box> kept;
  kept.reserve(open.size());
  std::size_t dropped = 0;
  for (Box& box : open) {
    const std::uint64_t h = BoxBitsHash(box);
    bool duplicate = leaf_decided(box);
    if (!duplicate) {
      for (std::size_t i : kept_bits[h])
        if (SameBoxBits(kept[i], box)) {
          duplicate = true;
          break;
        }
    }
    if (duplicate) {
      ++dropped;
      continue;
    }
    kept_bits[h].push_back(kept.size());
    kept.push_back(std::move(box));
  }
  open = std::move(kept);
  std::sort(open.begin(), open.end(), BoxLess);
  return dropped;
}

std::vector<Box> SplitBox(const Box& box, bool split_all_dims) {
  if (!split_all_dims) {
    auto [a, b] = box.Bisect(box.WidestDim());
    return {std::move(a), std::move(b)};
  }
  std::vector<Box> out{box};
  for (std::size_t dim = 0; dim < box.size(); ++dim) {
    if (box[dim].IsPoint()) continue;
    std::vector<Box> next;
    next.reserve(out.size() * 2);
    for (const Box& b : out) {
      auto [left, right] = b.Bisect(dim);
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    out = std::move(next);
  }
  return out;
}

PairEngine::PairEngine(expr::BoolExpr psi, VerifierOptions options)
    : psi_(std::move(psi)),
      not_psi_(expr::BoolExpr::Not(psi_)),
      options_(options) {
  XCV_CHECK_MSG(options_.split_threshold > 0.0,
                "split threshold must be positive");
  XCV_CHECK_MSG(options_.num_threads >= 1, "need at least one thread");
}

void PairEngine::SetTicketSink(std::function<void(double)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void PairEngine::EmitTicketsForOpen() {
  std::vector<double> tickets;
  std::function<void(double)> sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
    tickets.reserve(open_.size());
    for (const OpenBox& b : open_) tickets.push_back(b.priority);
  }
  if (sink) for (double p : tickets) sink(p);
}

void PairEngine::PushLocked(std::span<const Interval> box, bool suspect,
                            std::vector<double>* ticket_priorities) {
  if (store_.dims() != box.size()) {
    // Re-keying the store drops every slot; with live refs on the frontier
    // that would dangle them (possible only via a checkpoint whose open
    // boxes disagree on dimensionality — reject it loudly instead).
    XCV_CHECK_MSG(open_.empty() && in_flight_.empty(),
                  "open frontier boxes must share one dimensionality");
    store_.Reset(box.size());
  }
  OpenBox entry;
  entry.seq = next_seq_++;
  entry.priority =
      FrontierPriority(options_.frontier, box, suspect, entry.seq);
  entry.box_ref = store_.AllocateCopy(box);
  if (ticket_priorities != nullptr)
    ticket_priorities->push_back(entry.priority);
  open_.push_back(entry);
  std::push_heap(open_.begin(), open_.end(), OpenBoxLess{});
}

void PairEngine::Seed(const Box& domain) {
  std::vector<double> tickets;
  std::function<void(double)> sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seeded_ = true;
    PushLocked(domain.dims(), /*suspect=*/false, &tickets);
    sink = sink_;
  }
  if (sink) for (double p : tickets) sink(p);
}

void PairEngine::Restore(VerificationReport partial, std::vector<Box> open) {
  std::vector<double> tickets;
  std::function<void(double)> sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seeded_ = true;
    solver_calls_.store(partial.solver_calls);
    solver_timeouts_.store(partial.solver_timeouts);
    cache_hits_.store(partial.cache_hits);
    cache_misses_.store(partial.cache_misses);
    cache_rejected_.store(partial.cache_rejected);
    busy_seconds_ = partial.seconds;
    report_ = std::move(partial);
    for (const Box& b : open)
      PushLocked(b.dims(), /*suspect=*/false, &tickets);
    sink = sink_;
  }
  if (sink) for (double p : tickets) sink(p);
}

const DeltaSolver& PairEngine::Solver() {
  std::call_once(solver_once_, [this] {
    solver_ = std::make_unique<const DeltaSolver>(not_psi_, options_.solver);
  });
  return *solver_;
}

bool PairEngine::ProcessNext(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
    return false;

  OpenBox item;
  Box box;
  bool expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_.empty()) return false;
    std::pop_heap(open_.begin(), open_.end(), OpenBoxLess{});
    item = open_.back();
    open_.pop_back();
    // Materialize a value copy for the unlocked solver call; the pooled
    // slot stays live (and in the in-flight set) until the outcome is
    // recorded, so Snapshot still sees the box.
    box = Box(store_.View(item.box_ref));
    in_flight_.emplace_back(item.seq, item.box_ref);
    // The budget covers this pair's own processing time, not the wall time
    // it spent queued behind other pairs on the shared pool (and not other
    // pairs' work): compare against accumulated busy seconds.
    expired = busy_seconds_ >= options_.total_time_budget_seconds;
  }

  Stopwatch watch;

  RegionStatus status = RegionStatus::kTimeout;
  std::vector<double> witness;
  bool is_leaf = true;
  bool hit_rejected = false;
  std::vector<Box> children;
  std::vector<char> child_suspect;

  if (expired) {
    // Overall budget exhausted: classify the remaining area as timeout
    // without spending solver time (keeps the partition total).
  } else {
    const DeltaSolver& solver = Solver();
    CheckResult result;
    {
      obs::Span solve_span("solve");
      result = solver.Check(box);
      if (result.from_cache &&
          !RevalidateCachedResult(solver, item.seq, box, result)) {
        // The cached entry contradicts a fresh interval sweep (scope-hash
        // collision or a tampered file): distrust it and solve for real.
        // The fresh result overwrites the bad entry.
        hit_rejected = true;
        cache_rejected_.fetch_add(1, std::memory_order_relaxed);
        CacheLookupCounter("rejected").Inc();
        result = solver.Check(box, /*consult_cache=*/false);
      }
      if (solve_span.armed()) {
        // Deterministic args only (no wall seconds): replays of the same
        // run under the fixed trace clock stay byte-identical.
        solve_span.Arg("result", solver::SatKindName(result.kind));
        solve_span.Arg("nodes", result.stats.nodes);
        solve_span.Arg("from_cache",
                       static_cast<std::uint64_t>(result.from_cache ? 1 : 0));
      }
    }
    if (result.from_cache) {
      // No solver ran; the replayed result is byte-equivalent to the cold
      // run's, so everything below (status, witness, split) replays too.
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      CacheLookupCounter("hit").Inc();
    } else {
      // hits / misses / rejected are disjoint per box (see region.h): a
      // rejected hit was not a miss — the lookup found an entry.
      if (options_.solver.cache != nullptr && !hit_rejected) {
        cache_misses_.fetch_add(1, std::memory_order_relaxed);
        CacheLookupCounter("miss").Inc();
      }
      solver_calls_.fetch_add(1, std::memory_order_relaxed);
      SolverCallCounter(result.kind).Inc();
      if (result.kind == SatKind::kTimeout)
        solver_timeouts_.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) ObserveSolverStats(result.stats);
    }

    if (result.kind == SatKind::kUnsat) {
      status = RegionStatus::kVerified;
    } else {
      if (result.kind == SatKind::kDeltaSat) {
        // Algorithm 1's valid(x): the model must violate ψ beyond the
        // witness tolerance (see VerifierOptions::witness_tolerance).
        const bool violates_psi = !expr::EvalBoolWithSlack(
            psi_, result.model, options_.witness_tolerance);
        if (violates_psi) {
          status = RegionStatus::kCounterexample;
          witness = result.model;
        } else {
          status = RegionStatus::kInconclusive;
        }
      }
      // Leaf when children would fall below the threshold t.
      if (box.MaxWidth() / 2.0 >= options_.split_threshold) {
        is_leaf = false;
        children = SplitBox(box, options_.split_all_dims);
        child_suspect.resize(children.size(), 0);
        if (result.kind == SatKind::kDeltaSat) {
          for (std::size_t i = 0; i < children.size(); ++i)
            child_suspect[i] = children[i].Contains(result.model) ? 1 : 0;
        }
      }
    }
  }

  const double elapsed = watch.ElapsedSeconds();
  std::vector<double> tickets;
  std::function<void(double)> sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_seconds_ += elapsed;
    for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
      if (it->first == item.seq) {
        in_flight_.erase(it);
        break;
      }
    }
    store_.Release(item.box_ref);  // leaf or split: the slot is recycled
    reval_tri_.erase(item.seq);    // wave classification is spent either way
    if (!witness.empty()) report_.witnesses.push_back(witness);
    if (is_leaf) {
      report_.leaves.push_back(
          {std::move(box), status, std::move(witness)});
    } else {
      for (std::size_t i = 0; i < children.size(); ++i)
        PushLocked(children[i].dims(), child_suspect[i] != 0, &tickets);
    }
    sink = sink_;
  }
  if (sink) for (double p : tickets) sink(p);
  return true;
}

bool PairEngine::RevalidateCachedResult(const DeltaSolver& solver,
                                        std::uint64_t seq, const Box& box,
                                        const CheckResult& result) {
  int tri = 0;
  bool have_tri = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = reval_tri_.find(seq);
    if (it != reval_tri_.end()) {
      tri = it->second;
      have_tri = true;
    }
  }
  if (!have_tri) {
    // Build a revalidation wave: this box plus open frontier boxes not yet
    // classified, up to the solver's wave width, so one batched sweep
    // covers the pops that follow. (Boxes are copied out under the lock;
    // frontier entries are immutable until popped, so the classification
    // stays valid whenever it is consumed.)
    std::vector<std::uint64_t> seqs{seq};
    std::vector<Box> wave{box};
    const auto width = static_cast<std::size_t>(
        std::max(1, options_.solver.wave_width));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const OpenBox& b : open_) {
        if (wave.size() >= width) break;
        if (reval_tri_.count(b.seq) != 0) continue;
        seqs.push_back(b.seq);
        wave.push_back(Box(store_.View(b.box_ref)));
      }
    }
    std::vector<int> tris;
    {
      obs::Span reval_span("cache-revalidate");
      reval_span.Arg("wave", static_cast<std::uint64_t>(wave.size()));
      solver.ClassifyBoxes(wave, tris);
    }
    CacheRevalidationCounter().Inc();
    tri = tris[0];
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Only keep classifications for boxes still open: another worker may
      // have popped (and finished) a wave member while the sweep ran, and
      // inserting its tri afterwards would leave a dead entry in the map
      // forever (its erase already happened). Seqs never recycle, so a
      // skipped insert is at worst a re-classification later.
      std::unordered_set<std::uint64_t> open_seqs;
      open_seqs.reserve(open_.size());
      for (const OpenBox& b : open_) open_seqs.insert(b.seq);
      for (std::size_t i = 1; i < seqs.size(); ++i)
        if (open_seqs.count(seqs[i]) != 0) reval_tri_.emplace(seqs[i], tris[i]);
    }
  }

  // The sweep classifies ¬ψ over the box: +1 = certainly satisfiable
  // everywhere, -1 = certainly unsatisfiable, 0 = undecided. A verdict that
  // contradicts its box's classification cannot have come from a run of
  // this solver on this box.
  switch (result.kind) {
    case SatKind::kUnsat:
      return tri != 1;
    case SatKind::kDeltaSat:
      if (tri == -1) return false;
      return !result.model.empty() && box.Contains(result.model);
    case SatKind::kTimeout:
      // A box decidable by one forward sweep is decided at node 1 — it can
      // never exhaust a node budget.
      return tri == 0;
  }
  return false;
}

bool PairEngine::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seeded_ && open_.empty() && in_flight_.empty();
}

double PairEngine::TopPriority() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) return -std::numeric_limits<double>::infinity();
  return open_.front().priority;
}

std::size_t PairEngine::OpenCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

double PairEngine::BusySeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_seconds_;
}

EngineSnapshot PairEngine::Snapshot() const {
  EngineSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.report = report_;
  snap.report.solver_calls = solver_calls_.load();
  snap.report.solver_timeouts = solver_timeouts_.load();
  snap.report.cache_hits = cache_hits_.load();
  snap.report.cache_misses = cache_misses_.load();
  snap.report.cache_rejected = cache_rejected_.load();
  snap.report.seconds = busy_seconds_;
  snap.open.reserve(open_.size() + in_flight_.size());
  for (const OpenBox& b : open_)
    snap.open.push_back(Box(store_.View(b.box_ref)));
  for (const auto& [seq, ref] : in_flight_)
    snap.open.push_back(Box(store_.View(ref)));
  CanonicalizeReport(snap.report);
  std::sort(snap.open.begin(), snap.open.end(), BoxLess);
  return snap;
}

VerificationReport PairEngine::TakeReport() {
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(in_flight_.empty(), "TakeReport while boxes are in flight");
  VerificationReport report = std::move(report_);
  report_ = VerificationReport{};
  report.solver_calls = solver_calls_.load();
  report.solver_timeouts = solver_timeouts_.load();
  report.cache_hits = cache_hits_.load();
  report.cache_misses = cache_misses_.load();
  report.cache_rejected = cache_rejected_.load();
  report.seconds = busy_seconds_;
  CanonicalizeReport(report);
  return report;
}

std::vector<Box> PairEngine::TakeOpenFrontier() {
  std::lock_guard<std::mutex> lock(mu_);
  XCV_CHECK_MSG(in_flight_.empty(),
                "TakeOpenFrontier while boxes are in flight");
  std::vector<Box> out;
  out.reserve(open_.size());
  for (const OpenBox& b : open_) {
    out.push_back(Box(store_.View(b.box_ref)));
    store_.Release(b.box_ref);
  }
  open_.clear();
  std::sort(out.begin(), out.end(), BoxLess);
  return out;
}

void RunEngineToCompletion(PairEngine& engine, int num_threads) {
  if (num_threads <= 1) {
    while (engine.ProcessNext(nullptr)) {
    }
    return;
  }
  ThreadPool& pool = ThreadPool::Global(static_cast<std::size_t>(num_threads));
  auto group = pool.MakeGroup(static_cast<std::size_t>(num_threads));
  // One ticket per open box; each ticket pops the engine's *current* best
  // box, so scheduler priorities track frontier priorities.
  engine.SetTicketSink([&pool, &group, &engine](double priority) {
    pool.Submit(group, priority, [&engine] { engine.ProcessNext(nullptr); });
  });
  engine.EmitTicketsForOpen();
  pool.Wait(group);
  engine.SetTicketSink(nullptr);
}

}  // namespace xcv::verifier
