#include "support/retry.h"

#include <algorithm>
#include <csignal>

#include "support/check.h"
#include "support/io.h"
#include "support/json.h"

namespace xcv::support::retry {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kLaunchError: return "launch-error";
    case FailureKind::kPreempted: return "preempted";
    case FailureKind::kInjectedCrash: return "injected-crash";
    case FailureKind::kHeartbeatStall: return "heartbeat-stall";
    case FailureKind::kCleanNonzero: return "nonzero-exit";
  }
  return "unknown";
}

FailureKind ClassifyFailure(bool launch_error, bool stall_kill, bool signaled,
                            int term_signal, int exit_code) {
  if (launch_error) return FailureKind::kLaunchError;
  // The supervisor's own stale-lease SIGKILL must not read as a
  // preemption: the node was alive-but-hung, which is a different health
  // signal (and a different budget) than the rack yanking it.
  if (stall_kill) return FailureKind::kHeartbeatStall;
  if (signaled) {
    return term_signal == SIGKILL ? FailureKind::kPreempted
                                  : FailureKind::kCleanNonzero;
  }
  if (exit_code == 70) return FailureKind::kInjectedCrash;
  if (exit_code == 127 || exit_code == 126) return FailureKind::kLaunchError;
  return FailureKind::kCleanNonzero;
}

namespace {

std::uint64_t FnvMix64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

double BackoffSeconds(const RuntimeAttrs& attrs, const std::string& node,
                      int attempt, std::uint64_t seed) {
  const int shift = std::clamp(attempt - 1, 0, 30);
  const double base =
      std::min(attrs.backoff_max_s,
               attrs.backoff_initial_s * static_cast<double>(1u << shift));
  // Jitter without an RNG: FNV-1a over (seed, node, attempt) mapped to
  // [0, 0.25] of the base — decorrelates a fleet retrying in lockstep
  // while keeping the timeline a pure function of its inputs.
  std::uint64_t h = FnvMix64(1469598103934665603ull, seed);
  h = FnvMix64(h, HashBytes(node));
  h = FnvMix64(h, static_cast<std::uint64_t>(attempt));
  const double frac =
      static_cast<double>(h % 1000003ull) / 1000003.0;  // [0, 1)
  return base * (1.0 + 0.25 * frac);
}

void RetryBudget::Charge(FailureKind kind, const RuntimeAttrs& attrs) {
  if (kind == FailureKind::kPreempted && preemptions < attrs.preemptible_tries) {
    ++preemptions;
    return;
  }
  ++failures;
}

bool RetryBudget::Exhausted(const RuntimeAttrs& attrs) const {
  return failures > attrs.max_retries;
}

// ---- Node-health ledger -----------------------------------------------------

NodeHealth& NodeLedger::Get(const std::string& node) {
  for (NodeHealth& n : nodes_)
    if (n.node == node) return n;
  nodes_.push_back(NodeHealth{});
  nodes_.back().node = node;
  return nodes_.back();
}

void NodeLedger::RecordLaunch(const std::string& node) { ++Get(node).launches; }

void NodeLedger::RecordSuccess(const std::string& node) {
  NodeHealth& n = Get(node);
  ++n.successes;
  n.consecutive_failures = 0;
  n.quarantined = false;
  n.cooldown_epochs_left = 0;
}

bool NodeLedger::RecordFailure(const std::string& node, FailureKind kind,
                               const RuntimeAttrs& attrs) {
  NodeHealth& n = Get(node);
  ++n.failures;
  if (kind == FailureKind::kPreempted) ++n.preemptions;
  ++n.consecutive_failures;
  n.last_failure = FailureKindName(kind);
  if (n.quarantined) {
    // A failed cooldown probe: back into quarantine for a full cooldown.
    n.cooldown_epochs_left = attrs.quarantine_cooldown_epochs;
    return false;
  }
  if (n.consecutive_failures >= attrs.quarantine_after) {
    n.quarantined = true;
    n.cooldown_epochs_left = attrs.quarantine_cooldown_epochs;
    return true;
  }
  return false;
}

bool NodeLedger::Usable(const std::string& node) const {
  for (const NodeHealth& n : nodes_) {
    if (n.node != node) continue;
    return !n.quarantined || n.cooldown_epochs_left <= 0;
  }
  return true;  // never seen: healthy until proven otherwise
}

bool NodeLedger::Quarantined(const std::string& node) const {
  for (const NodeHealth& n : nodes_)
    if (n.node == node) return n.quarantined;
  return false;
}

void NodeLedger::TickEpoch() {
  for (NodeHealth& n : nodes_)
    if (n.quarantined && n.cooldown_epochs_left > 0) --n.cooldown_epochs_left;
}

std::string NodeLedger::ToJson() const {
  std::string out = "{\n";
  out += "  \"format\": \"xcv-node-ledger\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"nodes\": [";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeHealth& n = nodes_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"node\": " + json::JsonEscape(n.node) + ",\n";
    out += "      \"launches\": " + std::to_string(n.launches) + ",\n";
    out += "      \"successes\": " + std::to_string(n.successes) + ",\n";
    out += "      \"failures\": " + std::to_string(n.failures) + ",\n";
    out += "      \"preemptions\": " + std::to_string(n.preemptions) + ",\n";
    out += "      \"consecutive_failures\": " +
           std::to_string(n.consecutive_failures) + ",\n";
    out += std::string("      \"quarantined\": ") +
           (n.quarantined ? "true" : "false") + ",\n";
    out += "      \"cooldown_epochs_left\": " +
           std::to_string(n.cooldown_epochs_left) + ",\n";
    out += "      \"last_failure\": " + json::JsonEscape(n.last_failure) +
           "\n";
    out += "    }";
  }
  out += nodes_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

constexpr DocumentKind kLedgerDocument = {"xcv-node-ledger", 1, "nodes",
                                          "nodes.load"};

NodeHealth NodeFromJson(const json::JsonValue& v) {
  NodeHealth n;
  n.node = v.At("node").AsString();
  n.launches = static_cast<std::uint64_t>(v.At("launches").AsDouble());
  n.successes = static_cast<std::uint64_t>(v.At("successes").AsDouble());
  n.failures = static_cast<std::uint64_t>(v.At("failures").AsDouble());
  n.preemptions = static_cast<std::uint64_t>(v.At("preemptions").AsDouble());
  n.consecutive_failures =
      static_cast<int>(v.At("consecutive_failures").AsDouble());
  n.quarantined = v.At("quarantined").AsBool();
  n.cooldown_epochs_left =
      static_cast<int>(v.At("cooldown_epochs_left").AsDouble());
  n.last_failure = v.At("last_failure").AsString();
  return n;
}

}  // namespace

bool NodeLedger::Load(const std::string& path) {
  path_ = path;
  nodes_.clear();
  return !LoadDocument(path, kLedgerDocument, nullptr,
                       [&](const json::JsonValue& v) {
                         nodes_.push_back(NodeFromJson(v));
                       })
              .cold;
}

void NodeLedger::Save() const {
  if (path_.empty()) return;
  AtomicWriteFile(path_, AddDocumentChecksum(ToJson()), "nodes.save");
}

}  // namespace xcv::support::retry
