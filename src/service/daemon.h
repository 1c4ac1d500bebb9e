// xcvd: verification-as-a-service on top of the campaign API.
//
// The daemon owns a persistent job queue. Each job is one api::JobSpec; a
// scheduler thread admits up to max_concurrent_jobs of them at a time, and
// each admitted job runs an ordinary campaign::Campaign on the shared
// work-stealing pool (ThreadPool::Global) behind its own concurrency-capped
// task group — many jobs interleave on one pool, no per-job thread armies.
//
// Everything a job decides flows through one process-wide VerdictCache
// (campaign shared_cache), so resubmitting a spec the daemon has seen —
// even across a restart — replays cached verdicts instead of solving.
//
// Durability: the queue journals to <state_dir>/queue.json through
// AtomicWriteFile + document checksum on every state change, and every job
// checkpoints to <state_dir>/job-<id>.json after each completed pair (the
// campaign engine's own checkpointing). Kill the daemon at any instant and
// a restart reloads the journal and each job's checkpoint through
// support::LoadDocument (the shared clean / salvaged / cold policy, see
// support/io.h), re-queues the jobs that were running, and resumes each
// from its checkpoint — pairs a salvaged checkpoint lost start fresh —
// converging to the same report bytes as an uninterrupted run. Fault
// points: service.journal.save.short-write,
// service.journal.save.crash-before-rename, service.journal.load.eio.
//
// Endpoints (all JSON unless noted):
//   POST /v1/campaigns               submit a job-spec document -> {id}
//   GET  /v1/campaigns               list jobs (status + progress)
//   GET  /v1/campaigns/:id           one job with live per-pair progress
//   POST /v1/campaigns/:id/pause     cooperative stop -> checkpoint, paused
//   POST /v1/campaigns/:id/cancel    cooperative stop -> checkpoint, cancelled
//   POST /v1/campaigns/:id/resume    paused/cancelled -> queued again
//   GET  /v1/campaigns/:id/report    ?format=table|json|csv (job's own
//                                    output mode by default) — csv is
//                                    byte-identical to `xcv verify`
//   GET  /v1/campaigns/:id/trace     the job's span timeline as Chrome
//                                    trace_event JSON (404 until the job
//                                    has run with job traces enabled)
//   GET  /v1/healthz                 liveness + queue counters + a summary
//                                    of the process metrics registry
//   GET  /v1/metrics                 Prometheus text exposition of every
//                                    registered metric (text/plain 0.0.4)
//   GET  /v1/info                    the `xcv info` report (text/plain)
//   POST /v1/shutdown                graceful stop (checkpoints + journal)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/job_spec.h"
#include "cache/verdict_cache.h"
#include "campaign/campaign.h"
#include "service/http.h"

namespace xcv::service {

inline constexpr int kQueueSchemaVersion = 1;

enum class JobStatus {
  kQueued,      ///< waiting for a scheduler slot
  kRunning,     ///< campaign in flight on the shared pool
  kPausing,     ///< pause requested; cancelling cooperatively
  kPaused,      ///< stopped at a checkpoint; resume re-queues it
  kCancelling,  ///< cancel requested; cancelling cooperatively
  kCancelled,   ///< stopped at a checkpoint by cancel
  kDone,        ///< every pair complete; report available
  kFailed,      ///< the campaign threw; see error
};

const char* JobStatusToken(JobStatus status);
/// Throws xcv::InternalError on an unknown token.
JobStatus JobStatusFromToken(const std::string& token);

struct DaemonOptions {
  /// Journal, per-job checkpoints, and the shared cache live here.
  std::string state_dir = "xcvd-state";
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Jobs admitted concurrently; each is capped at its own spec's thread
  /// count on the shared pool.
  int max_concurrent_jobs = 1;
  /// Log lines on stderr (the daemon never writes to stdout — stdout
  /// belongs to machine-read streams, per the OutputPolicy rules).
  bool verbose = false;
  /// Record a span timeline per job run into <state_dir>/trace-<id>.json,
  /// served by GET /v1/campaigns/:id/trace. The process-wide recorder has
  /// one timeline, so only one job traces at a time (first admitted wins;
  /// complete coverage at max_concurrent_jobs = 1). Verdicts and reports
  /// are identical either way.
  bool job_traces = true;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Loads the journal and shared cache from state_dir, re-queues
  /// interrupted jobs, starts the scheduler and the HTTP server. Call
  /// once.
  void Start();

  /// Graceful stop: running jobs get a cooperative cancel and re-queue
  /// themselves (their checkpoints make restart seamless), the journal and
  /// shared cache are saved, the server stops. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// True after POST /v1/shutdown — the main loop's cue to call Stop().
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  int port() const { return server_.port(); }

  /// The request router — the HTTP handler, exposed so tests can drive
  /// the daemon in-process without a socket.
  HttpResponse Handle(const HttpRequest& req);

  /// Entries currently in the shared verdict cache (tests, /healthz).
  std::size_t CacheSize() const { return cache_.size(); }

 private:
  struct Job;

  /// One admitted job's thread. done flips (last action of the thread)
  /// once RunJob returns, making the handle safe to join without blocking.
  struct Runner {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// The job's full matrix (api::InitialPairs order) with every pair its
  /// checkpoint recovered overlaid by (functional, condition): a salvaged
  /// checkpoint holds only some pairs, and the rest start fresh.
  std::vector<campaign::PairState> ResumePairs(const Job& job) const;

  std::string JournalPath() const;
  std::string CachePath() const;
  std::string CheckpointPathFor(const std::string& id) const;
  std::string TracePathFor(const std::string& id) const;

  /// Recomputes the xcv_daemon_jobs{tenant,state} gauge family from the
  /// queue (called from SaveJournalLocked — every state transition saves).
  void UpdateJobsGaugeLocked();

  /// Serializes the whole queue under mu_ and writes it durably.
  void SaveJournalLocked();
  /// Writes the shared verdict cache durably. Saves are serialized on
  /// cache_save_mu_ (not mu_, so HTTP handlers never wait on the write):
  /// every save stages through the same `cache.json.tmp`, and two runners
  /// finishing together would otherwise race on it.
  void SaveCache();
  /// Reloads the queue through support::LoadDocument (records = jobs; the
  /// header restores next_id_). Interrupted jobs re-queue.
  void LoadJournal();

  Job* FindLocked(const std::string& id);
  Job* PickNextLocked();
  void RunJob(Job* job);
  void SchedulerLoop();
  /// Joins and drops every finished runner thread (called from the
  /// scheduler under mu_ so a long-lived daemon never accumulates
  /// thread handles).
  void ReapRunnersLocked();

  HttpResponse HandleSubmit(const HttpRequest& req);
  HttpResponse HandleList();
  HttpResponse HandleGet(const Job& job);
  HttpResponse HandleStopJob(Job& job, bool cancel);
  HttpResponse HandleResume(Job& job);
  HttpResponse HandleReport(const Job& job, const HttpRequest& req);
  HttpResponse HandleTrace(const Job& job);
  HttpResponse HandleHealthz();

  DaemonOptions options_;
  cache::VerdictCache cache_;
  HttpServer server_;

  std::mutex cache_save_mu_;  // see SaveCache

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  /// Monotonic admission counter + when each tenant last won a slot:
  /// PickNextLocked breaks load ties by least-recently-served tenant.
  std::uint64_t tenant_serve_seq_ = 0;
  std::map<std::string, std::uint64_t> tenant_last_served_;
  /// Every tenant the jobs gauge has ever reported, so a tenant whose jobs
  /// all finish still gets its per-state series zeroed (not left stale).
  std::set<std::string> gauge_tenants_;
  int running_count_ = 0;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::thread scheduler_;
  bool stopping_ = false;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace xcv::service
