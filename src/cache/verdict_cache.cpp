#include "cache/verdict_cache.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "expr/optimize.h"
#include "obs/metrics.h"
#include "solver/box.h"
#include "support/check.h"
#include "support/io.h"
#include "support/json.h"

namespace xcv::cache {

using expr::FnvMix;
using json::JsonDouble;
using json::JsonValue;

std::string CachedKindToken(CachedKind kind) {
  switch (kind) {
    case CachedKind::kUnsat: return "unsat";
    case CachedKind::kDeltaSat: return "delta_sat";
    case CachedKind::kTimeout: return "timeout";
  }
  return "unsat";
}

CachedKind CachedKindFromToken(const std::string& token) {
  if (token == "unsat") return CachedKind::kUnsat;
  if (token == "delta_sat") return CachedKind::kDeltaSat;
  if (token == "timeout") return CachedKind::kTimeout;
  XCV_CHECK_MSG(false, "unknown cached verdict kind '" << token << "'");
  return CachedKind::kUnsat;
}

namespace {

// Process-wide resident-entry gauge, delta-updated at every count_
// mutation across every VerdictCache instance (a campaign's file-backed
// cache and the daemon's shared cache both report into it).
obs::Gauge& CacheEntriesGauge() {
  static obs::Gauge& g = obs::Registry::Global().GetGauge(
      "xcv_cache_store_entries",
      "Verdict-cache entries resident in this process (all caches).");
  return g;
}

// Endpoint identity is bit-pattern identity: -0.0 and 0.0 are different
// keys, exactly as the solver's splitting arithmetic produces them. The
// comparisons live in solver/box.h (shared with the shard merge).
using solver::BoxBitsLess;
using solver::SameBoxBits;

void AppendDoubles(std::string& out, std::span<const double> values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += JsonDouble(values[i]);
  }
  out += ']';
}

void AppendIntervals(std::string& out, std::span<const Interval> dims) {
  out += '[';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out += JsonDouble(dims[i].lo());
    out += ',';
    out += JsonDouble(dims[i].hi());
    out += ']';
  }
  out += ']';
}

std::vector<Interval> IntervalsFromJson(const JsonValue& v) {
  std::vector<Interval> dims;
  dims.reserve(v.array.size());
  for (const JsonValue& d : v.array) {
    XCV_CHECK_MSG(d.array.size() == 2, "cache box dimension needs [lo, hi]");
    dims.emplace_back(d.array[0].AsDouble(), d.array[1].AsDouble());
  }
  return dims;
}

}  // namespace

std::uint64_t VerdictCache::MapKey(std::uint64_t scope,
                                   std::span<const Interval> box) {
  std::uint64_t h = expr::kFnvOffset;
  h = FnvMix(h, scope);
  h = FnvMix(h, box.size());
  for (const Interval& iv : box) {
    h = FnvMix(h, std::bit_cast<std::uint64_t>(iv.lo()));
    h = FnvMix(h, std::bit_cast<std::uint64_t>(iv.hi()));
  }
  return h;
}

VerdictCache::~VerdictCache() {
  CacheEntriesGauge().Add(-static_cast<double>(count_));
}

bool VerdictCache::Lookup(std::uint64_t scope, std::span<const Interval> box,
                          CachedVerdict* out) const {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    for (const Entry& e : it->second) {
      if (e.scope == scope && SameBoxBits(e.box, box)) {
        *out = e.verdict;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void VerdictCache::Store(std::uint64_t scope, std::span<const Interval> box,
                         CachedVerdict verdict) {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  stores_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Entry>& bucket = entries_[key];
  for (Entry& e : bucket) {
    if (e.scope == scope && SameBoxBits(e.box, box)) {
      e.verdict = std::move(verdict);  // refresh (e.g. after a rejected hit)
      return;
    }
  }
  Entry entry;
  entry.scope = scope;
  entry.box.assign(box.begin(), box.end());
  entry.verdict = std::move(verdict);
  bucket.push_back(std::move(entry));
  ++count_;
  CacheEntriesGauge().Add(1.0);
}

bool VerdictCache::Erase(std::uint64_t scope, std::span<const Interval> box) {
  const std::uint64_t key = MapKey(scope, box);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  std::vector<Entry>& bucket = it->second;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].scope == scope && SameBoxBits(bucket[i].box, box)) {
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
      if (bucket.empty()) entries_.erase(it);
      --count_;
      CacheEntriesGauge().Add(-1.0);
      return true;
    }
  }
  return false;
}

void VerdictCache::ForEach(
    const std::function<void(std::uint64_t, std::span<const Interval>,
                             const CachedVerdict&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> sorted;
  sorted.reserve(count_);
  for (const auto& [key, bucket] : entries_)
    for (const Entry& e : bucket) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    if (a->scope != b->scope) return a->scope < b->scope;
    return BoxBitsLess(a->box, b->box);
  });
  for (const Entry* e : sorted) fn(e->scope, e->box, e->verdict);
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

CacheCounters VerdictCache::counters() const {
  CacheCounters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.stores = stores_.load(std::memory_order_relaxed);
  return c;
}

std::string VerdictCache::ToJson() const {
  // Canonical entry order (the ForEach order) → byte-identical files for
  // equal caches (CI uploads the cache as an artifact; stable bytes make
  // diffs meaningful).
  std::string out = "{\n";
  out += "  \"format\": \"xcv-verdict-cache\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"entries\": [";
  char buf[32];
  std::size_t i = 0;
  ForEach([&](std::uint64_t scope, std::span<const Interval> box,
              const CachedVerdict& verdict) {
    if (i++) out += ',';
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(scope));
    out += "\n    {\"scope\": \"";
    out += buf;
    out += "\", \"box\": ";
    AppendIntervals(out, box);
    out += ", \"kind\": \"" + CachedKindToken(verdict.kind) + "\"";
    out += ", \"nodes\": " + std::to_string(verdict.nodes);
    if (!verdict.model.empty()) {
      out += ", \"model\": ";
      AppendDoubles(out, verdict.model);
    }
    if (!verdict.model_box.empty()) {
      out += ", \"model_box\": ";
      AppendIntervals(out, verdict.model_box);
    }
    out += '}';
  });
  if (i > 0) out += "\n  ";
  out += "]\n}\n";
  return out;
}

namespace {

constexpr support::DocumentKind kCacheDocument = {"xcv-verdict-cache", 1,
                                                  "entries", "cache.load"};

}  // namespace

void VerdictCache::Adopt(Buckets staged, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheEntriesGauge().Add(static_cast<double>(count) -
                          static_cast<double>(count_));
  entries_ = std::move(staged);
  count_ = count;
}

bool VerdictCache::FromJson(const std::string& json_text) {
  Buckets staged;
  const support::LoadOutcome outcome = support::ParseDocument(
      json_text, kCacheDocument, nullptr,
      [&](const JsonValue& ev) { StageEntry(ev, staged); });
  if (!outcome.clean) staged.clear();
  Adopt(std::move(staged), outcome.clean ? outcome.items_recovered : 0);
  return outcome.clean;
}

void VerdictCache::StageEntry(const JsonValue& ev, Buckets& staged) {
  Entry e;
  const std::string& scope_hex = ev.At("scope").AsString();
  char* end = nullptr;
  e.scope = std::strtoull(scope_hex.c_str(), &end, 16);
  XCV_CHECK_MSG(end != scope_hex.c_str() && *end == '\0',
                "bad cache scope '" << scope_hex << "'");
  e.box = IntervalsFromJson(ev.At("box"));
  e.verdict.kind = CachedKindFromToken(ev.At("kind").AsString());
  e.verdict.nodes = static_cast<std::uint64_t>(ev.At("nodes").AsDouble());
  if (const JsonValue* m = ev.Find("model"))
    for (const JsonValue& c : m->array) e.verdict.model.push_back(c.AsDouble());
  if (const JsonValue* mb = ev.Find("model_box"))
    e.verdict.model_box = IntervalsFromJson(*mb);
  staged[MapKey(e.scope, e.box)].push_back(std::move(e));
}

bool VerdictCache::Load(const std::string& path, CacheLoadStats* stats) {
  Buckets staged;
  CacheLoadStats outcome = support::LoadDocument(
      path, kCacheDocument, nullptr,
      [&](const JsonValue& ev) { StageEntry(ev, staged); });
  Adopt(std::move(staged), outcome.items_recovered);
  const bool warm = outcome.clean || outcome.items_recovered > 0;
  if (stats != nullptr) *stats = std::move(outcome);
  return warm;
}

void VerdictCache::Save(const std::string& path) const {
  // The checksum is added at the file level, not in ToJson, so the
  // in-memory document stays byte-identical to what the merge and
  // round-trip tests compare.
  support::AtomicWriteFile(path, support::AddDocumentChecksum(ToJson()),
                           "cache.save");
}

}  // namespace xcv::cache
