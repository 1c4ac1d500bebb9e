// Persistent verdict cache: memoizes DeltaSolver::Check results across
// campaigns, so repeated runs (CI smoke matrices, parameter sweeps, EC×DFA
// matrices) skip solver work they have already paid for.
//
// Key = (scope, box):
//   * scope is a 64-bit fingerprint the solver derives from the canonical
//     optimized tapes of the formula's atoms, the formula skeleton, every
//     verdict-affecting solver option (delta, node budget, contraction
//     rounds, …— NOT wave_width, which is a pure batching knob), and a
//     caller-supplied salt (the campaign folds the condition id in);
//   * box is the queried domain's endpoints as exact bit patterns — lookups
//     match only boxes that are bit-for-bit the ones solved before, which is
//     what makes replay sound: deterministic splitting regenerates the exact
//     same boxes.
// Value = the solver's verdict (UNSAT / delta-sat model+box / node-budget
// timeout) plus node-count provenance. Verified (UNSAT) and counterexample
// leaves never change for a fixed scope; wall-clock-caused timeouts are
// never recorded (they are not reproducible).
//
// The cache may only skip work, never change verdicts: a hit replays the
// exact CheckResult the cold run produced, and the verifier engine
// batch-revalidates hits against a fresh interval sweep before trusting
// them (defense against scope-hash collisions and stale files).
//
// Thread-safe: one mutex around the map; counters are atomics. On-disk
// format is the repo's %.17g JSON (support/json.h), written atomically
// (temp file + rename) and loaded through support::LoadDocument, which
// owns the damaged-file policy — Load never throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <mutex>

#include "interval/interval.h"
#include "support/io.h"

namespace xcv::cache {

/// Cached solver outcome kinds. kTimeout entries are only ever recorded
/// when the deterministic node budget (part of the scope hash) was the
/// stopper, so replaying them is as sound as replaying UNSAT.
enum class CachedKind { kUnsat, kDeltaSat, kTimeout };

std::string CachedKindToken(CachedKind kind);
CachedKind CachedKindFromToken(const std::string& token);

/// One cached verdict (the parts of a CheckResult that replay).
struct CachedVerdict {
  CachedKind kind = CachedKind::kUnsat;
  std::vector<double> model;      // delta-sat witness point (may be empty)
  std::vector<Interval> model_box;  // terminal box of a delta-sat result
  std::uint64_t nodes = 0;        // provenance: branch-and-prune nodes spent
};

/// Counter snapshot (monotonic since construction/Load).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

/// Outcome of a cache load (the optional out-param of Load): the
/// support::LoadDocument outcome, records = cache entries.
using CacheLoadStats = support::LoadOutcome;

class VerdictCache {
 public:
  VerdictCache() = default;
  /// Retires this cache's entries from the process-wide
  /// xcv_cache_store_entries gauge (src/obs/metrics.h).
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// Exact lookup: scope must match bit-for-bit and `box` must equal the
  /// recorded box endpoint-for-endpoint. Fills `out` and returns true on a
  /// hit. Thread-safe.
  bool Lookup(std::uint64_t scope, std::span<const Interval> box,
              CachedVerdict* out) const;

  /// Inserts or overwrites the entry for (scope, box). Thread-safe.
  void Store(std::uint64_t scope, std::span<const Interval> box,
             CachedVerdict verdict);

  /// Removes the entry for (scope, box) if present. Returns true when an
  /// entry was removed. Thread-safe. Used by the shard cache union
  /// (src/shard/merge.cpp) to reject-and-drop conflicting entries.
  bool Erase(std::uint64_t scope, std::span<const Interval> box);

  /// Calls `fn` once per entry, in the same canonical (scope, then box bit
  /// patterns) order ToJson serializes — so unions and statistics built from
  /// the visit are deterministic. The mutex is held for the whole walk; `fn`
  /// must not call back into this cache.
  void ForEach(const std::function<void(std::uint64_t scope,
                                        std::span<const Interval> box,
                                        const CachedVerdict& verdict)>& fn)
      const;

  std::size_t size() const;
  CacheCounters counters() const;

  /// Serializes every entry as one JSON document, entries in a canonical
  /// order (scope, then box lexicographically) so equal caches produce
  /// byte-identical files.
  std::string ToJson() const;

  /// Replaces the contents with the entries parsed from `json_text`.
  /// Returns false (leaving the cache empty) unless the document loads
  /// clean under support::ParseDocument.
  bool FromJson(const std::string& json_text);

  /// Replaces the contents from `path` through support::LoadDocument: a
  /// salvaged file keeps its intact entries, a cold one leaves the cache
  /// empty — never a crash. Returns true when the cache came back warm (a
  /// clean load, or a salvage that recovered at least one entry). Honours
  /// the "cache.load.eio" fault point. Fills `*stats` when non-null.
  bool Load(const std::string& path, CacheLoadStats* stats = nullptr);

  /// Writes the cache to `path` durably and atomically (temp file + fsync
  /// + rename + directory fsync), with a whole-document checksum. Honours
  /// the "cache.save.*" fault points. Throws xcv::InternalError on I/O
  /// failure.
  void Save(const std::string& path) const;

 private:
  struct Entry {
    std::uint64_t scope = 0;
    std::vector<Interval> box;
    CachedVerdict verdict;
  };

  // Buckets by combined (scope, box-bits) hash; entries inside a bucket are
  // disambiguated by exact scope and box comparison.
  using Buckets = std::unordered_map<std::uint64_t, std::vector<Entry>>;

  static std::uint64_t MapKey(std::uint64_t scope,
                              std::span<const Interval> box);
  /// Parses one entry record into `staged`; throws xcv::InternalError on
  /// a malformed record.
  static void StageEntry(const json::JsonValue& ev, Buckets& staged);
  /// Replaces the contents with `staged` (`count` entries) in one step,
  /// so a failed load can never leave the cache half-loaded.
  void Adopt(Buckets staged, std::size_t count);

  mutable std::mutex mu_;
  Buckets entries_;
  std::size_t count_ = 0;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
};

}  // namespace xcv::cache
