// Task-graph engine for Algorithm 1.
//
// One PairEngine owns the verification of a single (ψ, domain) pair,
// decomposed into box tasks on a prioritized open frontier. The engine does
// no threading of its own: drivers pull work with ProcessNext(), which pops
// the best open box, runs one solver call, and either records a leaf or
// pushes the children back onto the frontier. This factors the old
// Verifier::Run internals (RunContext/ProcessBox/SplitBox) into a form that
// many pairs can share: Verifier::Run drives one engine; a campaign
// (src/campaign/) interleaves dozens on the shared scheduler.
//
// Concurrency: ProcessNext is safe to call from many threads. Bookkeeping
// (frontier, in-flight set, report) lives behind one mutex taken exactly
// twice per processed box — once to pop, once to record the outcome — while
// the solver call itself runs unlocked; solver-call counters are atomics.
// The engine compiles one DeltaSolver, which is immutable and shared by
// every worker: each call runs on the calling thread's SolverWorkspace, so
// solver scratch memory grows with workers, not with pairs × workers.
// Because in-flight boxes are tracked, Snapshot() can produce a consistent
// (report, open frontier) pair at any moment, which is what campaign
// checkpoints serialize.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expr/bool_expr.h"
#include "solver/icp.h"
#include "support/stopwatch.h"
#include "verifier/verifier.h"

namespace xcv::verifier {

/// Priority of an open box under `strategy`. `suspect` marks a box that
/// contains a delta-sat model of its parent (a counterexample suspect);
/// `seq` is the engine-local submission counter (FIFO tie-break).
double FrontierPriority(FrontierStrategy strategy,
                        std::span<const Interval> box, bool suspect,
                        std::uint64_t seq);
inline double FrontierPriority(FrontierStrategy strategy,
                               const solver::Box& box, bool suspect,
                               std::uint64_t seq) {
  return FrontierPriority(strategy, box.dims(), suspect, seq);
}

/// Consistent mid-run snapshot (what a checkpoint serializes): the leaves
/// and witnesses recorded so far plus every box still open or in flight.
struct EngineSnapshot {
  VerificationReport report;
  std::vector<solver::Box> open;
};

/// One (ψ, domain) verification in progress.
class PairEngine {
 public:
  PairEngine(expr::BoolExpr psi, VerifierOptions options);

  PairEngine(const PairEngine&) = delete;
  PairEngine& operator=(const PairEngine&) = delete;

  /// Called with the priority of every box pushed onto the frontier; a pool
  /// driver submits one scheduler ticket per call. Pass nullptr to clear.
  /// Boxes already open when the sink is installed get no call — use
  /// EmitTicketsForOpen() to cover them.
  void SetTicketSink(std::function<void(double priority)> sink);

  /// Invokes the ticket sink once per currently open box (driver start-up
  /// after Seed/Restore happened before the sink was installed).
  void EmitTicketsForOpen();

  /// Enqueues the root domain.
  void Seed(const solver::Box& domain);

  /// Resumes from a checkpoint: previously recorded partial report plus the
  /// open frontier saved with it. The budget clock carries over (the
  /// restored report's seconds count against total_time_budget_seconds).
  void Restore(VerificationReport partial, std::vector<solver::Box> open);

  /// Pops the best open box and processes it (one solver call; leaf or
  /// split). Returns false when nothing was processed: the frontier is
  /// empty, or `cancel` is set — cancellation leaves the frontier intact
  /// for Snapshot()/TakeOpenFrontier(). Thread-safe.
  bool ProcessNext(const std::atomic<bool>* cancel);

  /// True once the pair is fully decided: seeded, frontier empty, nothing
  /// in flight.
  bool Finished() const;

  /// Priority of the best open box; -infinity when the frontier is empty.
  double TopPriority() const;

  std::size_t OpenCount() const;

  /// Consistent snapshot of report + open/in-flight boxes (see above). The
  /// report copy is canonically ordered.
  EngineSnapshot Snapshot() const;

  /// Moves the report out (canonically ordered; report.seconds is the
  /// accumulated busy time). Call once, after Finished() or after the
  /// driver has quiesced post-cancellation.
  VerificationReport TakeReport();

  /// Moves out the open frontier (for checkpointing after cancellation).
  std::vector<solver::Box> TakeOpenFrontier();

  const expr::BoolExpr& psi() const { return psi_; }
  const VerifierOptions& options() const { return options_; }
  double BusySeconds() const;

 private:
  // Open boxes live in the pooled frontier store (one flat slot per box,
  // recycled on release) rather than as per-entry heap vectors; the heap
  // entries and the in-flight set carry slot refs.
  struct OpenBox {
    solver::BoxStore::Ref box_ref = -1;
    double priority = 0.0;
    std::uint64_t seq = 0;
  };

  void PushLocked(std::span<const Interval> box, bool suspect,
                  std::vector<double>* ticket_priorities);
  /// The engine's solver for ¬ψ, compiled on first use (a pair restored as
  /// finished never pays for tape compilation).
  const solver::DeltaSolver& Solver();

  /// Decides whether a cache-replayed CheckResult for `box` may be trusted.
  /// The box's interval classification comes from the revalidation map if an
  /// earlier wave covered it; otherwise one batched sweep classifies the box
  /// together with up to wave_width-1 open frontier boxes (so a warm replay
  /// pays one EvalTapeIntervalBatch dispatch per wave, not per box). Returns
  /// false when the classification or the cached model contradicts the
  /// cached verdict — the caller then re-solves with the cache bypassed.
  bool RevalidateCachedResult(const solver::DeltaSolver& solver,
                              std::uint64_t seq,
                              const solver::Box& box,
                              const solver::CheckResult& result);

  expr::BoolExpr psi_;
  expr::BoolExpr not_psi_;
  VerifierOptions options_;

  mutable std::mutex mu_;  // frontier, store, in-flight, report, sink
  solver::BoxStore store_;     // keyed to the domain dims at Seed/Restore
  std::vector<OpenBox> open_;  // max-heap (std::push_heap/pop_heap)
  std::vector<std::pair<std::uint64_t, solver::BoxStore::Ref>> in_flight_;
  VerificationReport report_;
  std::function<void(double)> sink_;
  std::uint64_t next_seq_ = 0;
  double busy_seconds_ = 0.0;  // also the budget clock, see ProcessNext
  bool seeded_ = false;

  std::atomic<std::uint64_t> solver_calls_{0};
  std::atomic<std::uint64_t> solver_timeouts_{0};

  // Verdict-cache bookkeeping. reval_tri_ holds interval classifications
  // (+1/-1/0) of open boxes computed by revalidation waves, keyed by the
  // box's frontier seq (slot refs recycle, seqs never do); entries are
  // consumed/cleared when the box is processed.
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_rejected_{0};
  std::unordered_map<std::uint64_t, int> reval_tri_;  // guarded by mu_

  // Compiled lazily by Solver(); immutable afterwards, so concurrent
  // ProcessNext calls share it without locking.
  std::once_flag solver_once_;
  std::unique_ptr<const solver::DeltaSolver> solver_;
};

/// Sorts leaves by box bounds and witnesses lexicographically, so the same
/// run configuration yields byte-identical reports for any thread count.
void CanonicalizeReport(VerificationReport& report);

// ---- Report union (distributed shard merge, src/shard/) --------------------

/// Precedence when two partial reports disagree about the same leaf box:
/// delta-sat results (counterexample, then inconclusive) outrank unsat
/// (verified), which outranks timeout. Higher value wins; open frontier
/// boxes rank below every leaf (see CanonicalizeOpenBoxes).
int RegionStatusPrecedence(RegionStatus status);

/// Unions `from` into `into`: solver/cache counters and busy seconds are
/// summed, witnesses concatenated, leaves concatenated — except that a leaf
/// whose box already exists bit-for-bit in `into` is merged by
/// RegionStatusPrecedence instead of duplicated (shards of one campaign
/// never produce duplicates; overlapping inputs do). Canonical order is NOT
/// restored — call CanonicalizeReport once after the last union. Returns the
/// number of duplicate leaves dropped.
std::size_t MergeReportInto(VerificationReport& into,
                            VerificationReport&& from);

/// Re-canonicalizes a merged open frontier: drops exact (bit-pattern)
/// duplicates and boxes `report` has already decided as leaves, then sorts
/// into the same canonical box order report leaves use. Returns the number
/// of boxes dropped.
std::size_t CanonicalizeOpenBoxes(std::vector<solver::Box>& open,
                                  const VerificationReport& report);

/// Splits `box` into 2^d children (every non-point dimension bisected), or
/// bisects the widest dimension when `split_all_dims` is false.
std::vector<solver::Box> SplitBox(const solver::Box& box, bool split_all_dims);

/// Drives `engine` to completion: inline when num_threads <= 1, otherwise
/// as prioritized tickets on the shared global pool, capped at num_threads
/// concurrent boxes.
void RunEngineToCompletion(PairEngine& engine, int num_threads);

}  // namespace xcv::verifier
