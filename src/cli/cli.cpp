#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <system_error>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unordered_set>

#include "api/job_spec.h"
#include "api/render.h"
#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "campaign/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/coordinator.h"
#include "shard/merge.h"
#include "shard/partition.h"
#include "support/check.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/strings.h"

namespace xcv::cli {

namespace {

using campaign::Campaign;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::PairState;
using conditions::ConditionInfo;
using functionals::Functional;

constexpr const char* kUsage = R"(xcv — exact-condition verification campaigns

Usage:
  xcv verify [options]      Run a (functional x condition) verification matrix
  xcv resume [options]      Continue a campaign from --checkpoint
  xcv shard [options]       Partition a campaign checkpoint into K shard
                            checkpoints, one per node (resume each anywhere)
  xcv merge FILE... [opts]  Union resumed shard checkpoints (and their
                            verdict caches) back into one campaign report
  xcv coordinate [options]  Supervise an elastic K-node campaign on this
                            host: deal shards, launch resumes, watch
                            heartbeats, re-deal dead/straggler nodes' work,
                            merge — loops until every pair is done
  xcv cache-stats FILE      Inspect a verdict-cache file (read-only)
  xcv list                  List known functionals and conditions
  xcv info [--metrics]      Show SIMD tiers: compiled, CPU-supported, active
                            dispatch choice, and the XCV_SIMD override;
                            --metrics appends the process metrics registry
                            in Prometheus text form
  xcv help                  Show this help

Options (verify/resume):
  --functionals=SPEC   Comma list of functionals, family selectors (lda, gga,
                       mgga) or "all" (the five paper DFAs).      [all]
  --conditions=SPEC    Comma list of conditions, ranges (EC1..EC4) or "all".
                                                                  [all]
  --threads=N          Worker cap on the shared scheduler.        [1]
  --budget-seconds=S   Processing-time budget per pair; 0 = unlimited. [10]
  --split-threshold=T  Algorithm 1 split threshold t.             [0.3125]
  --solver-nodes=N     Per-solver-call node budget.               [30000]
  --delta=D            Solver precision delta.                    [0.001]
  --wave-width=K       Cap on the boxes per batched interval sweep in
                       the solver: each solver call starts at 8 lanes and
                       doubles per wave up to K (1 = scalar; results are
                       identical at any width, only the speed changes).
                                                                  [64]
  --frontier=S         Frontier order: widest | suspect | fifo.   [widest]
  --checkpoint=PATH    Write checkpoints here (after every completed pair,
                       on Ctrl-C, and at the end); resume reads it.
  --cache=PATH         Persistent verdict cache: load it before the run (a
                       missing or corrupt file starts cold), record every
                       decided box, write it back at the end. Repeated
                       campaigns replay cached verdicts instead of solving;
                       reports are byte-identical either way. The XCV_CACHE
                       environment variable supplies a default path.
  --cache-readonly     Consult --cache but never write it back.
  --format=F           Final output: table | json | csv.          [table]
  --quiet              No per-pair progress on stderr.
  --heartbeat=PATH     (resume) Touch PATH every 250 ms while running, so a
                       supervisor can tell a working node from a hung one.
  --heartbeat-stream   (resume) Also print an XCV-HEARTBEAT line to stdout
                       every beat, so a remote supervisor can mirror
                       liveness through an ssh channel (the coordinator's
                       --nodes transport filters these lines out). The beat
                       stops before the final report is rendered, and with
                       --format=json|csv per-pair progress is suppressed
                       too — machine-read output stays clean.

Options (shard):
  --checkpoint=PATH    Campaign checkpoint to partition. When omitted, an
                       unrun campaign is built from --functionals,
                       --conditions and the solver flags above and sharded
                       before any solving.
  --shards=K           Number of shard checkpoints to write.      [2]
  --by=G               Granularity: pairs (whole pairs round-robin) or
                       frontier (open boxes dealt round-robin in the
                       campaign's frontier-priority order).       [pairs]
  --out-dir=DIR        Directory for shard-0.json .. shard-K-1.json.  [.]
  --rebalance          Re-mint origin_index provenance from the current pair
                       order, making this partition dense in its own
                       coordinates — use when re-dealing a merged mid-flight
                       checkpoint across a changed fleet.

Options (coordinate):
  --checkpoint=PATH    Campaign checkpoint to drive (created fresh from
                       --functionals/--conditions when absent); the
                       coordinator re-reads and rewrites it every epoch, so
                       killing and re-running the coordinator resumes.
  --shards=K           Fleet width: resume processes per epoch.     [2]
  --nodes=H1,H2,...    Run each node remotely over ssh/scp instead of
                       forking locally: one node per host (overrides
                       --shards), shard checkpoints and caches shipped out,
                       `xcv resume --heartbeat-stream` run there, results
                       fetched back. Hosts must accept non-interactive ssh
                       (BatchMode); --xcv-bin names the remote binary.
  --by=G               Partition granularity: pairs | frontier.    [pairs]
  --work-dir=DIR       Shard files, heartbeats, per-epoch node logs (kept
                       for the last 3 epochs), and the node-health ledger
                       nodes.json.                      [xcv-coordinate]
  --max-retries=N      Ordinary failures tolerated per shard per epoch
                       before its node gives up and the shard is re-dealt
                       across the surviving nodes.                  [2]
  --preemptible=N      Dedicated budget for preemption-style SIGKILLs,
                       consumed before --max-retries (WDL
                       preemptible_tries).                          [3]
  --quarantine-after=N Consecutive failures before a node is quarantined
                       (sits out epochs, then earns one probe).     [3]
  --launch-timeout=S   A launched node that never heartbeats within S
                       seconds is a transport failure.              [30]
  --rebalance-epoch=S  Deadline per epoch: stragglers still running after S
                       seconds are asked to checkpoint and stop, and their
                       remaining frontier is re-dealt across the whole
                       fleet. 0 = wait for every node.             [0]
  --lease=S            Heartbeat lease: a node silent for S seconds is
                       presumed hung and killed (its work since its last
                       checkpoint is re-dealt).                    [5]
  --max-epochs=N       Give up after N epochs.                     [64]
  --cache-dir=DIR      Give node k a persistent verdict cache at
                       DIR/cache-node-k.json.
  --kill-node=K@S      Chaos hook: SIGKILL node K, S seconds into epoch 0.
  --fault-node=K:SPEC  Chaos hook: run node K of epoch 0 with
                       XCV_FAULTS=SPEC armed.
  --xcv-bin=PATH       Binary to launch nodes with.    [this executable]
  --format=F           Render the converged report: table | json | csv.

Options (merge):
  -o PATH, --out=PATH  Write the merged checkpoint here (it is a valid,
                       resumable campaign checkpoint).
  --cache=LIST         Shard verdict-cache files to union (comma list; the
                       flag may also repeat, once per file). Conflicting
                       entries are rejected and dropped.
  --cache-out=PATH     Merged cache destination.       [merged-cache.json]
  --format=F           Render the merged report: table | json | csv.
  --quiet              No merge summary on stderr.
  --skip-corrupt       Skip unreadable/corrupt shard inputs with a warning
                       instead of failing; zero readable inputs is still an
                       error.

Observability (verify/resume/coordinate):
  --trace=FILE         Record a structured span timeline of the run (job ->
                       pair -> solve -> classify/contract, coordinator
                       epochs and events) and write it to FILE as Chrome
                       trace_event JSON — open in chrome://tracing or
                       Perfetto. The XCV_TRACE environment variable is the
                       same thing; XCV_TRACE_CLOCK=fixed swaps in a
                       deterministic counter clock for replay diffing.
                       Verdicts and reports are byte-identical with tracing
                       on or off. Set XCV_NO_METRICS=1 to disable the
                       metrics registry (`xcv info --metrics` shows it).

Fault injection (any command, for robustness testing):
  --faults=SPEC        Arm named fault points for this process, e.g.
                       --faults=checkpoint.save.short-write@2. The
                       XCV_FAULTS environment variable is the same thing;
                       `xcv info` lists every registered point; see README
                       "Fault tolerance" for the grammar.

Unrecognized --flags are usage errors: the message names the flag and
suggests the nearest recognized spelling (e.g. --max-nodes -> try
--solver-nodes).

Exit codes: 0 success, 1 coordinate gave up, 2 usage error, 70 injected
fault crash, 126/127 node launch failure (cannot exec), 130 cancelled
(checkpoint saved).
)";

// Signal handler target: only an atomic flag is touched in the handler.
Campaign* volatile g_campaign = nullptr;

void HandleSignal(int) {
  Campaign* c = g_campaign;
  if (c != nullptr) c->RequestCancel();
}

struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;
  /// Non-flag arguments after the command (merge's shard files,
  /// cache-stats' cache file). Commands that take none reject them.
  std::vector<std::string> positionals;
};

std::optional<ParsedArgs> ParseArgs(int argc, const char* const* argv) {
  ParsedArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--")) {
      std::string key = arg.substr(2), value = "true";
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      }
      // For merge, --cache accumulates: repeated flags build the same comma
      // list as --cache=a.json,b.json, so per-node cache files can be
      // listed one flag at a time. Everywhere else the usual last-flag-wins
      // applies (verify/resume take exactly one cache path).
      if (key == "cache" && args.command == "merge" &&
          args.flags.count(key) > 0)
        value = args.flags[key] + "," + value;
      args.flags[key] = value;
    } else if (arg == "-o" && args.command == "merge") {
      // Merge's one short flag, spelled like every other merge/diff tool;
      // --out=PATH is the long form. Other commands treat -o as the stray
      // argument it is.
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xcv: -o needs a path argument\n");
        return std::nullopt;
      }
      args.flags["out"] = argv[++i];
    } else if (args.command.empty()) {
      args.command = arg;
    } else {
      args.positionals.push_back(std::move(arg));
    }
  }
  if (args.command.empty()) args.command = "help";
  return args;
}

/// Commands without positional operands reject stray arguments loudly
/// instead of silently ignoring a typo.
bool RejectPositionals(const ParsedArgs& args) {
  if (args.positionals.empty()) return false;
  std::fprintf(stderr, "xcv %s: unexpected argument '%s'\n",
               args.command.c_str(), args.positionals.front().c_str());
  return true;
}

double FlagDouble(const ParsedArgs& args, const std::string& key,
                  double fallback) {
  const auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  XCV_CHECK_MSG(end != it->second.c_str() && *end == '\0' && v >= 0.0,
                "--" << key << " needs a non-negative number, got '"
                     << it->second << "'");
  return v;
}

/// Flags every command accepts on top of api::ApplyFlags' spec keys:
/// process-wide fault arming (Main) and trace capture (TraceSession).
const std::vector<std::string> kGlobalExtraFlags = {"faults", "trace"};

/// Compiles the command's flags down to a JobSpec over `base` (the paper
/// defaults, or a checkpoint's recorded options on resume) and validates
/// it — the one option-assembly path, shared with the daemon (src/api/).
/// `command_flags` lists the keys this command consumes itself (resume's
/// heartbeat, coordinate's fleet knobs); anything else unrecognized is a
/// usage error with a nearest-flag suggestion (api::ApplyFlags).
api::JobSpec SpecFromFlags(const ParsedArgs& args, api::JobSpec base,
                           std::vector<std::string> command_flags = {}) {
  command_flags.insert(command_flags.end(), kGlobalExtraFlags.begin(),
                       kGlobalExtraFlags.end());
  api::ApplyFlags(args.flags, base, command_flags);
  api::ValidateJobSpec(base);
  return base;
}

/// RAII trace capture for one command run: arms the global recorder when
/// --trace=FILE (or XCV_TRACE=FILE) names an output, writes the Chrome
/// trace_event JSON there on scope exit — including the exception path, so
/// a crashed run still leaves its timeline behind. XCV_TRACE_CLOCK=fixed
/// swaps in the deterministic counter clock (obs/trace.h).
class TraceSession {
 public:
  explicit TraceSession(const ParsedArgs& args) {
    if (const auto it = args.flags.find("trace"); it != args.flags.end()) {
      path_ = it->second;
    } else if (const char* env = std::getenv("XCV_TRACE");
               env != nullptr && *env != '\0') {
      path_ = env;
    }
    XCV_CHECK_MSG(args.flags.count("trace") == 0 || !path_.empty(),
                  "--trace needs a file path (--trace=FILE)");
    if (!path_.empty()) obs::TraceRecorder::Global().Start();
  }
  ~TraceSession() {
    if (path_.empty()) return;
    std::string error;
    if (!obs::TraceRecorder::Global().StopToFile(path_, &error))
      std::fprintf(stderr, "xcv: could not write trace file %s: %s\n",
                   path_.c_str(), error.c_str());
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
};

/// Runs the campaign with signal-cancel wiring and optional per-pair
/// progress on stderr. Rendering is a separate step (RenderResult) so
/// callers can stop side streams — the resume heartbeat — in between.
CampaignResult ExecuteCampaign(Campaign& campaign,
                               const api::OutputPolicy& policy) {
  g_campaign = &campaign;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  Campaign::ProgressFn progress;
  if (policy.progress) {
    progress = [](const PairState& p, std::size_t completed,
                  std::size_t total) {
      std::fprintf(stderr, "[xcv] %zu/%zu %s x %s: %s (%zu leaves, %llu "
                           "calls, %.2fs)\n",
                   completed, total, p.functional.c_str(),
                   p.condition.c_str(),
                   verifier::VerdictName(p.verdict).c_str(),
                   p.report.leaves.size(),
                   static_cast<unsigned long long>(p.report.solver_calls),
                   p.seconds);
    };
  }

  const CampaignResult result = campaign.Run(progress);
  g_campaign = nullptr;
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return result;
}

int RenderResult(const CampaignResult& result, const CampaignOptions& options,
                 api::OutputMode mode) {
  if (mode == api::OutputMode::kJson) {
    std::printf("%s", campaign::CheckpointToJson(options, result.pairs,
                                                 result.cancelled)
                          .c_str());
  } else if (mode == api::OutputMode::kCsv) {
    std::fputs(api::CsvReport(result.pairs).c_str(), stdout);
  } else {
    std::fputs(api::TableReport(result.pairs).c_str(), stdout);
    if (!options.cache_path.empty()) {
      std::printf(
          "Verdict cache (%s, %s): %llu hits, %llu misses, %llu rejected; "
          "%llu entries%s\n",
          options.cache_path.c_str(),
          result.cache_was_warm ? "warm" : "cold",
          static_cast<unsigned long long>(result.CacheHits()),
          static_cast<unsigned long long>(result.CacheMisses()),
          static_cast<unsigned long long>(result.CacheRejected()),
          static_cast<unsigned long long>(result.cache_entries),
          options.cache_readonly ? " (read-only)" : "");
    }
  }

  if (result.cancelled) {
    std::fprintf(stderr, "[xcv] cancelled: %zu/%zu pairs complete%s\n",
                 result.CompletedCount(), result.pairs.size(),
                 options.checkpoint_path.empty()
                     ? ""
                     : ", checkpoint saved — rerun with `xcv resume`");
    return 130;
  }
  return 0;
}

int CmdVerify(const ParsedArgs& args) {
  if (RejectPositionals(args)) return 2;
  const api::JobSpec spec = SpecFromFlags(args, api::DefaultJobSpec());
  TraceSession trace(args);
  const api::OutputPolicy policy =
      api::ResolveOutput(spec.output, spec.quiet, /*heartbeat_stream=*/false);

  Campaign campaign(spec.options);
  api::PopulateCampaign(spec, campaign);

  if (policy.progress)
    std::fprintf(stderr,
                 "[xcv] %zu pairs (%zu functionals x %zu conditions), "
                 "%d thread(s)\n",
                 campaign.PairCount(),
                 api::ParseFunctionalList(spec.functionals).size(),
                 api::ParseConditionList(spec.conditions).size(),
                 spec.options.num_threads);
  const CampaignResult result = ExecuteCampaign(campaign, policy);
  return RenderResult(result, spec.options, policy.mode);
}

int CmdResume(const ParsedArgs& args) {
  if (RejectPositionals(args)) return 2;
  const auto it = args.flags.find("checkpoint");
  if (it == args.flags.end()) {
    std::fprintf(stderr, "xcv resume: --checkpoint=PATH is required\n");
    return 2;
  }
  campaign::Checkpoint cp = campaign::LoadCheckpointFile(it->second);
  // Flags override the checkpointed run configuration (e.g. more threads).
  api::JobSpec base = api::DefaultJobSpec();
  base.options = cp.options;
  const api::JobSpec spec =
      SpecFromFlags(args, std::move(base), {"heartbeat", "heartbeat-stream"});
  TraceSession trace(args);
  CampaignOptions options = spec.options;
  if (options.checkpoint_path.empty()) options.checkpoint_path = it->second;

  Campaign campaign(options);
  std::size_t remaining = 0;
  for (PairState& p : cp.pairs) {
    if (!p.done) ++remaining;
    campaign.Restore(std::move(p));
  }
  const bool hb_stream = args.flags.count("heartbeat-stream") > 0;
  const api::OutputPolicy policy =
      api::ResolveOutput(spec.output, spec.quiet, hb_stream);
  if (policy.progress) {
    if (remaining == 0) {
      // Nothing left to solve: say so instead of silently re-emitting the
      // report (the checkpoint is complete; resume is a no-op render).
      std::fprintf(stderr,
                   "[xcv] campaign already complete: %zu/%zu pairs done — "
                   "re-emitting the final report\n",
                   cp.pairs.size(), cp.pairs.size());
    } else {
      std::fprintf(stderr, "[xcv] resuming %s: %zu of %zu pairs remaining\n",
                   it->second.c_str(), remaining, cp.pairs.size());
    }
  }

  // Heartbeat: touch the named file every 250 ms so a supervisor (`xcv
  // coordinate`, or any watchdog) can tell working from hung by mtime
  // alone. The thread dies with the process, so a crash stops the beat —
  // which is the point.
  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat_thread;
  const auto hb = args.flags.find("heartbeat");
  const bool markers = policy.stream_markers;
  if (hb != args.flags.end() || markers) {
    const std::string hb_path = hb != args.flags.end() ? hb->second : "";
    heartbeat_thread = std::thread([hb_path, markers, &heartbeat_stop] {
      while (!heartbeat_stop.load(std::memory_order_relaxed)) {
        if (!hb_path.empty()) support::TouchFile(hb_path);
        if (markers) {
          // One full line per beat: a remote supervisor watching this
          // process through an ssh pipe filters these out and mirrors
          // them into its local heartbeat file.
          std::printf("XCV-HEARTBEAT\n");
          std::fflush(stdout);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
  }
  const CampaignResult result = ExecuteCampaign(campaign, policy);
  // The marker stream stops *before* the report is rendered: a machine-mode
  // document (json/csv) on stdout must never have an XCV-HEARTBEAT line
  // land inside it (the beat used to keep running through rendering).
  if (heartbeat_thread.joinable()) {
    heartbeat_stop.store(true, std::memory_order_relaxed);
    heartbeat_thread.join();
  }
  return RenderResult(result, options, policy.mode);
}

// ---- Distributed sharding ---------------------------------------------------

/// The campaign state a distribution command (shard, coordinate) starts
/// from: --checkpoint=PATH when given (flags override the checkpointed run
/// configuration, like resume), otherwise an unrun campaign built from
/// --functionals/--conditions and the solver flags — the day-one multi-node
/// path, sharded before the first solve.
struct SeededCampaign {
  campaign::Checkpoint checkpoint;
  /// The flags compiled over the checkpoint's (or the default) options —
  /// carries the runtime attrs and output mode the command also needs.
  api::JobSpec spec;
};

SeededCampaign CheckpointFromFlagsOrFile(
    const ParsedArgs& args, std::vector<std::string> command_flags) {
  SeededCampaign seeded;
  if (const auto it = args.flags.find("checkpoint"); it != args.flags.end()) {
    seeded.checkpoint = campaign::LoadCheckpointFile(it->second);
    api::JobSpec base = api::DefaultJobSpec();
    base.options = seeded.checkpoint.options;
    seeded.spec = SpecFromFlags(args, std::move(base),
                                std::move(command_flags));
    seeded.checkpoint.options = seeded.spec.options;
  } else {
    seeded.spec = SpecFromFlags(args, api::DefaultJobSpec(),
                                std::move(command_flags));
    seeded.checkpoint.options = seeded.spec.options;
    seeded.checkpoint.pairs = api::InitialPairs(seeded.spec);
  }
  return seeded;
}

int CmdShard(const ParsedArgs& args) {
  if (RejectPositionals(args)) return 2;
  shard::PartitionOptions popts;
  popts.shards = static_cast<int>(FlagDouble(args, "shards", 2));
  XCV_CHECK_MSG(popts.shards >= 1, "--shards must be at least 1");
  if (const auto it = args.flags.find("by"); it != args.flags.end())
    popts.by = shard::ShardByFromToken(ToLower(it->second));
  popts.rebase_provenance = args.flags.count("rebalance") > 0;

  campaign::Checkpoint cp =
      CheckpointFromFlagsOrFile(args, {"shards", "by", "out-dir", "rebalance"})
          .checkpoint;

  const std::string out_dir =
      args.flags.count("out-dir") ? args.flags.at("out-dir") : ".";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  XCV_CHECK_MSG(!ec, "cannot create --out-dir '" << out_dir
                                                 << "': " << ec.message());
  const bool quiet = args.flags.count("quiet") > 0;
  const auto shards = shard::PartitionCheckpoint(cp, popts);
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const std::string path =
        out_dir + "/shard-" + std::to_string(k) + ".json";
    campaign::WriteCheckpointFile(path, shards[k].options, shards[k].pairs,
                                  shards[k].cancelled);
    if (!quiet) {
      std::size_t open_boxes = 0, work_pairs = 0;
      for (const PairState& p : shards[k].pairs) {
        if (p.applicable && !p.done) ++work_pairs;
        open_boxes += p.open.size();
      }
      std::fprintf(stderr,
                   "[xcv] %s: %zu pairs (%zu with work), %zu open boxes\n",
                   path.c_str(), shards[k].pairs.size(), work_pairs,
                   open_boxes);
    }
  }
  // A re-shard with a smaller K must not leave higher-numbered files from
  // the previous partition behind: the advertised `xcv merge shard-*.json`
  // glob would silently mix two partitions. Shard files are dense by
  // construction, so removal stops at the first absent index.
  for (std::size_t k = shards.size();; ++k) {
    const std::string stale =
        out_dir + "/shard-" + std::to_string(k) + ".json";
    if (!std::filesystem::exists(stale, ec)) break;
    if (std::filesystem::remove(stale, ec) && !ec) {
      if (!quiet)
        std::fprintf(stderr,
                     "[xcv] removed %s (stale leftover of a previous "
                     "%zu+-way partition)\n",
                     stale.c_str(), k + 1);
    } else {
      std::fprintf(stderr,
                   "[xcv] WARNING: could not remove stale %s (%s) — delete "
                   "it before merging, or `xcv merge shard-*.json` will mix "
                   "two partitions\n",
                   stale.c_str(), ec.message().c_str());
    }
  }
  if (!quiet)
    std::fprintf(stderr,
                 "[xcv] run `xcv resume --checkpoint=%s/shard-K.json` on "
                 "each node, then `xcv merge %s/shard-*.json`\n",
                 out_dir.c_str(), out_dir.c_str());
  return 0;
}

int CmdCoordinate(const ParsedArgs& args) {
  if (RejectPositionals(args)) return 2;
  shard::CoordinatorOptions copts;
  copts.shards = static_cast<int>(FlagDouble(args, "shards", 2));
  if (const auto it = args.flags.find("by"); it != args.flags.end())
    copts.by = shard::ShardByFromToken(ToLower(it->second));
  copts.work_dir = args.flags.count("work-dir") ? args.flags.at("work-dir")
                                                : "xcv-coordinate";
  copts.epoch_seconds = FlagDouble(args, "rebalance-epoch", 0.0);
  copts.lease_seconds = FlagDouble(args, "lease", copts.lease_seconds);
  copts.max_epochs =
      static_cast<int>(FlagDouble(args, "max-epochs", copts.max_epochs));
  if (const auto it = args.flags.find("nodes"); it != args.flags.end()) {
    copts.ssh_hosts = SplitCommas(it->second);
    XCV_CHECK_MSG(!copts.ssh_hosts.empty(),
                  "--nodes needs at least one host");
  }
  if (const auto it = args.flags.find("cache-dir"); it != args.flags.end())
    copts.cache_dir = it->second;
  if (const auto it = args.flags.find("xcv-bin"); it != args.flags.end())
    copts.xcv_binary = it->second;
  copts.quiet = args.flags.count("quiet") > 0;

  // Chaos hooks: --kill-node=K@S and --fault-node=K:SPEC.
  if (const auto it = args.flags.find("kill-node"); it != args.flags.end()) {
    const std::string& v = it->second;
    const auto at = v.find('@');
    copts.kill_node = std::atoi(v.c_str());
    if (at != std::string::npos)
      copts.kill_after_seconds = std::strtod(v.c_str() + at + 1, nullptr);
    XCV_CHECK_MSG(copts.kill_node >= 0 && copts.kill_after_seconds >= 0.0,
                  "--kill-node needs K@SECONDS, got '" << v << "'");
  }
  if (const auto it = args.flags.find("fault-node"); it != args.flags.end()) {
    const std::string& v = it->second;
    const auto colon = v.find(':');
    XCV_CHECK_MSG(colon != std::string::npos && colon > 0,
                  "--fault-node needs K:FAULT_SPEC, got '" << v << "'");
    copts.fault_node = std::atoi(v.substr(0, colon).c_str());
    copts.fault_spec = v.substr(colon + 1);
    // Validate the spec here, in the coordinator's process, so a typo is a
    // usage error now rather than K crashed children later. The arming is
    // scoped to the designated child's environment.
    support::fault::ArmFromSpec(copts.fault_spec);
    support::fault::Disarm();
  }

  // The coordinator owns one campaign checkpoint file. Seed it from the
  // flags (an existing --checkpoint, or a fresh matrix) exactly like shard.
  std::error_code ec;
  std::filesystem::create_directories(copts.work_dir, ec);
  XCV_CHECK_MSG(!ec, "cannot create --work-dir '" << copts.work_dir
                                                  << "': " << ec.message());
  const SeededCampaign seeded = CheckpointFromFlagsOrFile(
      args, {"shards", "by", "nodes", "work-dir", "rebalance-epoch", "lease",
             "max-epochs", "cache-dir", "xcv-bin", "kill-node", "fault-node"});
  TraceSession trace(args);
  const campaign::Checkpoint& cp = seeded.checkpoint;
  // The WDL-style retry/preemption budgets ride in the spec's runtime
  // attrs (one assembly path with the daemon; see api::ApplyFlags).
  copts.attrs = seeded.spec.runtime;
  copts.checkpoint_path = args.flags.count("checkpoint")
                              ? args.flags.at("checkpoint")
                              : copts.work_dir + "/campaign.json";
  campaign::WriteCheckpointFile(copts.checkpoint_path, cp.options, cp.pairs,
                                cp.cancelled);

  const shard::CoordinatorResult result = shard::RunCoordinator(copts);
  if (!copts.quiet) {
    std::fprintf(stderr,
                 "[xcv coordinate] %s: %d epoch(s), %d launch(es), %d "
                 "kill(s), %d recover(ies), %zu fragment(s) backfilled\n",
                 result.converged ? "converged" : "gave up", result.epochs,
                 result.launches, result.kills, result.recoveries,
                 result.backfilled_fragments);
    std::fprintf(stderr,
                 "[xcv coordinate] %d retr%s, %d preemption(s), %d "
                 "stall(s), %d launch failure(s), %zu node(s) quarantined\n",
                 result.retries, result.retries == 1 ? "y" : "ies",
                 result.preemptions, result.stalls, result.launch_failures,
                 result.quarantined.size());
    for (const std::string& node : result.quarantined)
      std::fprintf(stderr, "[xcv coordinate] quarantined: %s\n",
                   node.c_str());
  }
  if (!result.converged) {
    std::fprintf(stderr, "xcv coordinate: %s\n", result.error.c_str());
    return 1;
  }

  // Render the converged campaign exactly like a single-node run would.
  campaign::Checkpoint final_cp =
      campaign::LoadCheckpointFile(copts.checkpoint_path);
  if (seeded.spec.output == api::OutputMode::kJson) {
    std::printf("%s", campaign::CheckpointToJson(final_cp.options,
                                                 final_cp.pairs,
                                                 final_cp.cancelled)
                          .c_str());
  } else if (seeded.spec.output == api::OutputMode::kCsv) {
    std::fputs(api::CsvReport(final_cp.pairs).c_str(), stdout);
  } else {
    std::fputs(api::TableReport(final_cp.pairs).c_str(), stdout);
  }
  return 0;
}

int CmdMerge(const ParsedArgs& args) {
  if (args.positionals.empty()) {
    std::fprintf(stderr,
                 "xcv merge: needs at least one shard checkpoint file\n");
    return 2;
  }
  const bool skip_corrupt = args.flags.count("skip-corrupt") > 0;
  std::vector<campaign::Checkpoint> inputs;
  inputs.reserve(args.positionals.size());
  for (const std::string& path : args.positionals) {
    try {
      inputs.push_back(campaign::LoadCheckpointFile(path));
    } catch (const InternalError& e) {
      // Re-raise with the offending file named: a corrupt shard must be a
      // clear diagnostic, not a stack trace. With --skip-corrupt the
      // survivors still merge (the skipped shard's pairs go missing, which
      // the coverage warnings below surface).
      if (!skip_corrupt)
        throw InternalError("shard checkpoint '" + path +
                            "' is unreadable or malformed: " + e.what());
      std::fprintf(stderr, "[xcv] WARNING: skipping shard '%s': %s\n",
                   path.c_str(), e.what());
    }
  }
  // Zero readable inputs must be a loud, named failure — not an empty
  // report quietly overwriting last night's good merge.
  XCV_CHECK_MSG(!inputs.empty(),
                "merge: none of the "
                    << args.positionals.size()
                    << " input file(s) could be read — nothing to merge");

  // Usage errors must fire before any output file is written.
  XCV_CHECK_MSG(
      args.flags.count("cache-out") == 0 || args.flags.count("cache") > 0,
      "--cache-out needs --cache=FILE,... (no shard caches to union)");

  shard::MergeStats stats;
  campaign::Checkpoint merged =
      shard::MergeCheckpoints(std::move(inputs), &stats);
  XCV_CHECK_MSG(!merged.pairs.empty(),
                "merge: the readable inputs contain zero pairs — refusing "
                "to write an empty campaign");
  if (stats.mixed_partitions)
    std::fprintf(stderr,
                 "[xcv] note: inputs declare partitions of different sizes "
                 "(a re-sharded shard, or a stale file swept up by the "
                 "glob?) — partition coverage cannot be checked; actual "
                 "overlaps, if any, are reported below\n");
  if (!stats.missing_shards.empty() || stats.origin_gaps) {
    std::string slots;
    for (int i : stats.missing_shards)
      slots += (slots.empty() ? "" : ",") + std::to_string(i);
    std::fprintf(stderr,
                 "[xcv] WARNING: this union does not cover the whole "
                 "campaign%s%s — pairs are missing from the merged report; "
                 "merge the remaining shards in later (provenance is "
                 "preserved)\n",
                 slots.empty() ? "" : ": missing shard slot(s) ",
                 slots.c_str());
  }
  if (stats.options_mismatch)
    std::fprintf(stderr,
                 "[xcv] WARNING: shards were run with different "
                 "verdict-affecting options (a node overrode solver flags "
                 "on resume?) — the merged report is not comparable to a "
                 "single-node run\n");
  if (stats.duplicate_leaves > 0)
    std::fprintf(stderr,
                 "[xcv] WARNING: inputs overlap (%zu boxes decided by more "
                 "than one input) — verdicts and leaves stay sound, but "
                 "witness and counter columns double-count the overlapped "
                 "work\n",
                 stats.duplicate_leaves);
  if (const auto it = args.flags.find("out"); it != args.flags.end())
    campaign::WriteCheckpointFile(it->second, merged.options, merged.pairs,
                                  merged.cancelled);

  bool cache_merged = false;
  shard::CacheMergeStats cache_stats;
  std::string cache_out;
  if (const auto it = args.flags.find("cache"); it != args.flags.end()) {
    cache::VerdictCache cache_union;
    cache_stats = shard::MergeCacheFiles(SplitCommas(it->second),
                                         &cache_union);
    cache_out = args.flags.count("cache-out") ? args.flags.at("cache-out")
                                              : "merged-cache.json";
    cache_union.Save(cache_out);
    cache_merged = true;
  }

  // Counts for the stderr summary, taken before the pair vector is moved
  // into the render path (reports can hold very large frontiers).
  const std::size_t pair_count = merged.pairs.size();
  std::size_t open_boxes = 0, undone = 0;
  for (const PairState& p : merged.pairs) {
    open_boxes += p.open.size();
    if (p.applicable && !p.done) ++undone;
  }

  const api::OutputMode format =
      args.flags.count("format")
          ? api::OutputModeFromToken(ToLower(args.flags.at("format")))
          : api::OutputMode::kTable;
  if (format == api::OutputMode::kJson) {
    std::printf("%s", campaign::CheckpointToJson(merged.options, merged.pairs,
                                                 merged.cancelled)
                          .c_str());
  } else if (format == api::OutputMode::kCsv) {
    std::fputs(api::CsvReport(merged.pairs).c_str(), stdout);
  } else {
    std::fputs(api::TableReport(merged.pairs).c_str(), stdout);
  }

  if (args.flags.count("quiet") == 0) {
    std::fprintf(stderr,
                 "[xcv] merged %zu shards: %zu pairs from %zu fragments, "
                 "%zu duplicate leaves dropped, %zu open boxes deduped\n",
                 stats.shards, pair_count, stats.pair_fragments,
                 stats.duplicate_leaves, stats.open_dropped);
    if (undone > 0)
      std::fprintf(stderr,
                   "[xcv] %zu pairs still open (%zu boxes) — the merged "
                   "checkpoint is resumable\n",
                   undone, open_boxes);
    if (cache_merged)
      std::fprintf(
          stderr,
          "[xcv] cache union -> %s: %llu entries (%llu cross-shard "
          "duplicates, %llu conflicts dropped, %zu files, %zu unreadable)\n",
          cache_out.c_str(),
          static_cast<unsigned long long>(cache_stats.added),
          static_cast<unsigned long long>(cache_stats.duplicates),
          static_cast<unsigned long long>(cache_stats.conflicts_dropped),
          cache_stats.files_loaded, cache_stats.files_failed);
  }
  return 0;
}

int CmdCacheStats(const ParsedArgs& args) {
  if (args.positionals.size() != 1) {
    std::fprintf(stderr, "xcv cache-stats: needs exactly one cache file\n");
    return 2;
  }
  const std::string& path = args.positionals.front();
  cache::VerdictCache cache;
  XCV_CHECK_MSG(cache.Load(path), "cannot load verdict cache '"
                                      << path << "' (missing or corrupt)");
  std::size_t unsat = 0, delta_sat = 0, timeout = 0;
  std::unordered_set<std::uint64_t> scopes;
  cache.ForEach([&](std::uint64_t scope, std::span<const Interval>,
                    const cache::CachedVerdict& verdict) {
    scopes.insert(scope);
    switch (verdict.kind) {
      case cache::CachedKind::kUnsat: ++unsat; break;
      case cache::CachedKind::kDeltaSat: ++delta_sat; break;
      case cache::CachedKind::kTimeout: ++timeout; break;
    }
  });
  std::printf("verdict cache %s\n", path.c_str());
  std::printf("  entries:   %zu\n", cache.size());
  std::printf("  scopes:    %zu\n", scopes.size());
  std::printf("  unsat:     %zu\n", unsat);
  std::printf("  delta_sat: %zu\n", delta_sat);
  std::printf("  timeout:   %zu\n", timeout);
  return 0;
}

int CmdList() {
  std::printf("Functionals (paper Table I columns):\n");
  for (const Functional& f : functionals::PaperFunctionals())
    std::printf("  %-9s %-9s %s\n", f.name.c_str(),
                functionals::FamilyName(f.family).c_str(),
                functionals::DesignName(f.design).c_str());
  std::printf("Extensions:\n");
  for (const Functional& f : functionals::ExtensionFunctionals())
    std::printf("  %-9s %-9s %s\n", f.name.c_str(),
                functionals::FamilyName(f.family).c_str(),
                functionals::DesignName(f.design).c_str());
  std::printf("Conditions (paper Table I rows):\n");
  for (const ConditionInfo& c : conditions::AllConditions())
    std::printf("  %-4s %s\n", c.short_id.c_str(), c.name.c_str());
  return 0;
}

int CmdInfo(const ParsedArgs& args) {
  std::fputs(api::InfoReport().c_str(), stdout);
  if (args.flags.count("metrics") > 0)
    std::fputs(api::MetricsReport().c_str(), stdout);
  return 0;
}

}  // namespace

// The selector grammars live in the API layer now (src/api/job_spec.cpp);
// these aliases keep the CLI's public surface stable.
std::vector<const ConditionInfo*> ParseConditionList(const std::string& spec) {
  return api::ParseConditionList(spec);
}

std::vector<const Functional*> ParseFunctionalList(const std::string& spec) {
  return api::ParseFunctionalList(spec);
}

int Main(int argc, const char* const* argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.has_value()) return 2;
  try {
    // Fault injection arms before any command touches a file. Disarmed
    // (the overwhelmingly common case) this is one relaxed atomic load per
    // fault point — no measurable cost on any hot path.
    support::fault::ArmFromEnv();
    if (const auto it = args->flags.find("faults"); it != args->flags.end())
      support::fault::ArmFromSpec(it->second);

    if (args->command == "verify") return CmdVerify(*args);
    if (args->command == "resume") return CmdResume(*args);
    if (args->command == "shard") return CmdShard(*args);
    if (args->command == "coordinate") return CmdCoordinate(*args);
    if (args->command == "merge") return CmdMerge(*args);
    if (args->command == "cache-stats") return CmdCacheStats(*args);
    if (args->command == "list") {
      if (RejectPositionals(*args)) return 2;
      return CmdList();
    }
    if (args->command == "info") {
      if (RejectPositionals(*args)) return 2;
      return CmdInfo(*args);
    }
    if (args->command == "help" || args->command == "--help") {
      if (RejectPositionals(*args)) return 2;
      std::printf("%s", kUsage);
      return 0;
    }
    std::fprintf(stderr, "xcv: unknown command '%s'\n%s",
                 args->command.c_str(), kUsage);
    return 2;
  } catch (const InternalError& e) {
    std::fprintf(stderr, "xcv: %s\n", e.what());
    return 2;
  }
}

}  // namespace xcv::cli
