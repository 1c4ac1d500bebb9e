// WDL-style per-node runtime policy for preemption-tolerant campaigns.
//
// The shape follows the TRGT WDL runtime attributes proven on spot fleets
// (`preemptible_tries`, `max_retries`, explicit timeouts): cheap, killable
// workers get a dedicated preemption budget that is consumed before the
// ordinary retry budget, so a node reclaimed twice and then hitting a real
// bug is charged for one failure, not three.
//
// Three pieces live here, all deterministic and all free of wall-clock
// reads so a fixed fault spec replays the exact same timeline:
//
//   * failure classification — every way a node attempt can end maps to
//     one FailureKind (launch/transport error, preemption-style SIGKILL,
//     injected crash exit 70, heartbeat stall, clean nonzero exit);
//   * retry budgets + deterministic exponential backoff with
//     per-(node, attempt) seeded jitter (no RNG state, no clock);
//   * a persistent node-health ledger (`work-dir/nodes.json`, written
//     through AtomicWriteFile + document checksum) with
//     consecutive-failure quarantine and cooldown probes, so a
//     killed-and-rerun coordinator keeps its blacklist.
//
// This layer knows nothing about processes or ssh — src/shard/transport.h
// produces the raw observations, the coordinator feeds them through here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xcv::support::retry {

/// How a node attempt ended, from the supervisor's point of view.
enum class FailureKind {
  kLaunchError,     ///< could not launch / transport broke (exec 127, scp
                    ///< failure, fetch failure, launch timeout)
  kPreempted,       ///< SIGKILL from outside — the spot-reclaim shape
  kInjectedCrash,   ///< exit 70: the fault layer's deterministic crash
  kHeartbeatStall,  ///< lease expired; the supervisor killed a hung node
  kCleanNonzero,    ///< ordinary nonzero exit (a real bug, not the fleet)
};

const char* FailureKindName(FailureKind kind);

/// Maps one finished attempt to its FailureKind. `stall_kill` is true when
/// the supervisor itself killed the node for a stale heartbeat (the SIGKILL
/// then means "stall", not "preempted"); `launch_error` when the attempt
/// never produced a child worth classifying.
FailureKind ClassifyFailure(bool launch_error, bool stall_kill, bool signaled,
                            int term_signal, int exit_code);

/// Per-node runtime policy, the WDL runtime-attrs analog.
struct RuntimeAttrs {
  /// Ordinary failures tolerated per shard attempt sequence (a node may
  /// run 1 + max_retries times on non-preemption failures).
  int max_retries = 2;
  /// Dedicated budget consumed by preemption-style SIGKILLs before any
  /// preemption starts charging `max_retries`.
  int preemptible_tries = 3;
  /// A launched node that has never heartbeaten within this window is a
  /// launch/transport failure (ssh hung, exec wedged), distinct from the
  /// post-launch heartbeat lease.
  double launch_timeout_s = 30.0;
  /// Exponential backoff between retries: initial * 2^(attempt-1), capped.
  double backoff_initial_s = 0.5;
  double backoff_max_s = 8.0;
  /// Consecutive failures before a node is quarantined...
  int quarantine_after = 3;
  /// ...and the number of epochs it sits out before one cooldown probe.
  int quarantine_cooldown_epochs = 2;
};

/// Deterministic backoff before retry `attempt` (1-based: the wait after
/// the attempt-th failure) of `node`, seeded jitter included: the base
/// exponential delay plus up to +25%, keyed by FNV-1a over
/// (seed, node, attempt). Same inputs, same seconds — always.
double BackoffSeconds(const RuntimeAttrs& attrs, const std::string& node,
                      int attempt, std::uint64_t seed);

/// Running charge sheet for one node's attempts at one shard.
struct RetryBudget {
  int preemptions = 0;  ///< preemptions charged to preemptible_tries
  int failures = 0;     ///< everything charged to max_retries

  /// Charges one failure. Preemptions consume the preemptible budget
  /// first; once it is gone they count as ordinary failures.
  void Charge(FailureKind kind, const RuntimeAttrs& attrs);
  /// True when the next retry would exceed max_retries.
  bool Exhausted(const RuntimeAttrs& attrs) const;
};

/// One node's persisted health record (a row of nodes.json).
struct NodeHealth {
  std::string node;
  std::uint64_t launches = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::uint64_t preemptions = 0;
  int consecutive_failures = 0;
  bool quarantined = false;
  /// Epochs left before a quarantined node earns one probe attempt.
  int cooldown_epochs_left = 0;
  /// FailureKindName of the most recent failure ("" when none).
  std::string last_failure;
};

/// Persistent node-health ledger. Every mutation can be Save()d through
/// AtomicWriteFile with a document checksum (fault points
/// `nodes.save.short-write`, `nodes.save.crash-before-rename`,
/// `nodes.load.eio`), so the blacklist survives a killed-and-rerun
/// supervisor. It loads through support::LoadDocument (support/io.h), so a
/// damaged ledger never aborts a campaign.
class NodeLedger {
 public:
  /// Binds the ledger to `path` and loads it through support::LoadDocument.
  /// Returns false on a cold start (missing, unreadable, checksum-
  /// mismatched or header-damaged file). Sharing that policy gives the
  /// ledger prefix salvage: a torn ledger keeps every node record that
  /// still closes and returns true. Damaged bytes go to `<path>.corrupt`.
  bool Load(const std::string& path);
  /// Durable write-back of every record. No-op when Load was never called
  /// (in-memory ledgers, tests).
  void Save() const;

  /// The record for `node`, created on first use.
  NodeHealth& Get(const std::string& node);
  const std::vector<NodeHealth>& nodes() const { return nodes_; }

  void RecordLaunch(const std::string& node);
  /// Success clears quarantine and the consecutive-failure streak.
  void RecordSuccess(const std::string& node);
  /// Returns true when this failure newly quarantined the node.
  bool RecordFailure(const std::string& node, FailureKind kind,
                     const RuntimeAttrs& attrs);

  /// True when `node` may be launched this epoch: not quarantined, or
  /// quarantined with its cooldown elapsed (the probe).
  bool Usable(const std::string& node) const;
  bool Quarantined(const std::string& node) const;
  /// Start-of-epoch tick: cooldowns count down one epoch.
  void TickEpoch();

  std::string ToJson() const;

 private:
  std::string path_;
  std::vector<NodeHealth> nodes_;
};

}  // namespace xcv::support::retry
