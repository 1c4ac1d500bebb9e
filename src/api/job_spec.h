// The programmatic campaign API: one audited path from a job description to
// a runnable campaign::Campaign.
//
// A JobSpec is the complete, serializable description of one verification
// job — functional/condition selectors, every solver and verifier knob,
// WDL-style runtime attributes, and the output mode. The `xcv` CLI compiles
// its flags down to a JobSpec, the `xcvd` daemon parses one out of a
// `POST /v1/campaigns` body, and tests construct them directly; all three
// then go through the same validation (ValidateJobSpec) and the same
// campaign construction (PopulateCampaign / InitialPairs), so there is
// exactly one place where a job description can be wrong.
//
// JSON: WriteJobSpecJson/ParseJobSpecJson round-trip every field exactly
// (%.17g doubles, support/json.h conventions); documents carry
// `"schema_version"` with the shared compatibility rule (json.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "conditions/conditions.h"
#include "functionals/functional.h"
#include "support/json.h"
#include "support/retry.h"

namespace xcv::api {

/// Schema major of the job-spec document this build writes and the newest
/// it reads (json::RequireSupportedSchema).
inline constexpr int kJobSpecSchemaVersion = 1;

// ---- Output mode ------------------------------------------------------------

/// What stdout carries when a run's result is rendered. kJson and kCsv are
/// *machine* modes: stdout is a stream another program parses, so nothing
/// else (progress chatter, heartbeat markers) may be interleaved into it.
enum class OutputMode { kTable, kJson, kCsv };

std::string OutputModeToken(OutputMode mode);
/// Throws xcv::InternalError on an unknown token (there is no silent
/// fallback — a typo'd --format must not quietly render a table).
OutputMode OutputModeFromToken(const std::string& token);

/// True for json/csv — stdout is machine-read.
bool IsMachineOutput(OutputMode mode);

/// The one place output-mode interactions are decided (formerly ad-hoc
/// --quiet / --heartbeat-stream checks spread over the CLI):
///   * progress: per-pair lines on stderr — off under --quiet, and forced
///     off when a machine mode shares the process with a heartbeat stream
///     (a daemon- or coordinator-spawned job must never risk interleaving
///     human chatter near its machine-read output);
///   * stream_markers: XCV-HEARTBEAT lines on stdout — callers must stop
///     the marker stream *before* rendering any machine-mode report.
struct OutputPolicy {
  OutputMode mode = OutputMode::kTable;
  bool progress = true;
  bool stream_markers = false;
};

OutputPolicy ResolveOutput(OutputMode mode, bool quiet, bool heartbeat_stream);

// ---- Job spec ---------------------------------------------------------------

/// Everything needed to run (or re-run, or ship to another machine) one
/// verification campaign. The selectors stay in their spec-string form so a
/// job is self-describing and diffable; they are resolved against the
/// registries at validation/build time.
struct JobSpec {
  /// Functional selector: names, family selectors, or "all" (the five
  /// paper DFAs) — ParseFunctionalList grammar.
  std::string functionals = "all";
  /// Condition selector: ids, ranges ("EC1..EC4"), or "all".
  std::string conditions = "all";
  /// Campaign options (threads, verifier + solver knobs, checkpoint/cache
  /// wiring). Defaults match DefaultJobSpec(), not CampaignOptions{}.
  campaign::CampaignOptions options;
  /// Rendered-output mode for CLI runs and the daemon's report endpoint.
  OutputMode output = OutputMode::kTable;
  bool quiet = false;
  /// WDL-style runtime attributes (retry/preemption budgets, launch
  /// timeout) for supervised execution — `xcv coordinate` and cloud
  /// runners read them; plain single-process runs ignore them.
  support::retry::RuntimeAttrs runtime;
  /// Fairness bucket for multi-user serving ("" = default tenant). The
  /// daemon schedules round-robin across tenants with queued jobs.
  std::string tenant;
};

/// The paper-default job: the one defaults object every surface (`xcv`,
/// `xcvd` job specs, the bench binaries, the examples) starts from and
/// overrides — delta 1e-3, 30k-node solver calls of at most 0.5 s, 512
/// invalid models, 10 s per pair, split threshold 0.3125.
JobSpec DefaultJobSpec();

/// Upper bound on a job's worker threads. Every job shares the process
/// pool (ThreadPool::Global grows to the largest request), so an unbounded
/// count would let one request start that many OS threads.
inline constexpr int kMaxJobThreads = 256;

/// The single validation path: selector strings resolve to a non-empty
/// matrix, budgets are non-negative, counts are in range. Throws
/// xcv::InternalError with a message naming the offending field. Every
/// entrance (CLI flags, HTTP body, tests) must pass through here before a
/// campaign is built.
void ValidateJobSpec(const JobSpec& spec);

// ---- The flag dialect -------------------------------------------------------

using FlagMap = std::map<std::string, std::string>;

/// argv split into `--key=value` flags and operands — the one argv parser
/// behind `xcv`, `xcvd` and the bench binaries. A bare `--key` means
/// "true"; a repeated key keeps its last value unless it is listed in
/// `list_keys`, whose repeats join into one comma list. Every argument not
/// starting with "--" is an operand, in order.
struct ArgList {
  FlagMap flags;
  std::vector<std::string> operands;
};
ArgList SplitArgs(int argc, const char* const* argv,
                  const std::vector<std::string>& list_keys = {});

/// The one number reader for flag values: the whole of `text` must be a
/// non-negative number. Throws xcv::InternalError naming `field`.
double ParseFlagNumber(const std::string& text, const std::string& field);

/// ParseFlagNumber of `--key`'s value, or `fallback` when it is absent.
double FlagNumber(const FlagMap& flags, const std::string& key,
                  double fallback);

/// The one integer check, shared by flags and JSON: `value` must be
/// integral and within [lo, hi] (hi at most 2^53, where doubles stop being
/// exact). Throws xcv::InternalError naming `field` — no silent truncation
/// of 2.7 to 2, no undefined cast of 1e30.
long long CheckedInteger(double value, const std::string& field, long long lo,
                         long long hi);

/// ParseFlagNumber + CheckedInteger of `--key`'s value, or `fallback` when
/// it is absent.
long long FlagInteger(const FlagMap& flags, const std::string& key,
                      long long fallback, long long lo, long long hi);

/// Usage-error gate: every key must be in `known`. The throw names the flag
/// and suggests the nearest known one — scored by edit distance with a
/// bonus for a shared whole '-'-token, so `--max-nodes` points at
/// `--solver-nodes` rather than the edit-closer `--max-retries`.
void RejectUnknownFlags(const FlagMap& flags,
                        const std::vector<std::string>& known);

/// Applies `--key=value` flags over `spec`. Recognized keys: functionals,
/// conditions, threads, budget-seconds (0 = unlimited), split-threshold,
/// solver-nodes, delta, wave-width, frontier, checkpoint, cache (XCV_CACHE
/// env supplies the default), cache-readonly, format, quiet, max-retries,
/// preemptible, quarantine-after, launch-timeout, tenant. Any other key is
/// a usage error (RejectUnknownFlags) unless `extra_allowed` lists it — the
/// keys the calling command consumes itself (e.g. resume's `heartbeat`).
/// Throws xcv::InternalError on malformed values.
void ApplyFlags(const FlagMap& flags, JobSpec& spec,
                const std::vector<std::string>& extra_allowed = {});

/// Serializes the complete spec as a standalone JSON document
/// ("xcv-job-spec", schema_version, every field explicit).
std::string WriteJobSpecJson(const JobSpec& spec);

/// Appends the spec as a JSON *object* at `indent` (for embedding in other
/// documents, e.g. the daemon's queue journal).
void AppendJobSpecJson(std::string& out, const JobSpec& spec,
                       const std::string& indent);

/// Parses a document (or bare object) produced by WriteJobSpecJson — or a
/// hand-written subset: absent fields keep their DefaultJobSpec() values,
/// unknown fields are ignored. Validates before returning. Throws
/// xcv::InternalError on malformed JSON, an unsupported schema_version, or
/// a spec that fails ValidateJobSpec.
JobSpec ParseJobSpecJson(const std::string& json_text);
JobSpec JobSpecFromJson(const json::JsonValue& root);

// ---- Selector resolution (moved from the CLI) -------------------------------

/// Parses a comma-separated condition spec: short ids ("EC3"), ranges
/// ("EC1..EC4" or "EC2-EC5"), or "all". Throws xcv::InternalError on
/// unknown ids; result is deduplicated, in paper (Table I row) order.
std::vector<const conditions::ConditionInfo*> ParseConditionList(
    const std::string& spec);

/// Parses a comma-separated functional spec: registry names ("pbe",
/// "VWN_RPA"), family selectors ("lda", "gga", "mgga"), or "all" (the five
/// paper DFAs). Throws xcv::InternalError on unknown names; result is
/// deduplicated, paper column order first, extensions after.
std::vector<const functionals::Functional*> ParseFunctionalList(
    const std::string& spec);

// ---- Campaign construction --------------------------------------------------

/// Enqueues the spec's matrix on `campaign`, condition-major (Table I row
/// order) — the exact order `xcv verify` has always used, so reports stay
/// byte-identical no matter which surface submitted the job.
void PopulateCampaign(const JobSpec& spec, campaign::Campaign& campaign);

/// The same matrix as unrun PairStates (the shard/coordinate fresh path).
std::vector<campaign::PairState> InitialPairs(const JobSpec& spec);

}  // namespace xcv::api
