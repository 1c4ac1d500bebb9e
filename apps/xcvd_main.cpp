// The `xcvd` binary: the verification-as-a-service daemon.
// See src/service/daemon.h for the endpoint surface.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <thread>

#include "api/job_spec.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "support/check.h"
#include "support/fault.h"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

int Usage(std::FILE* out) {
  std::fputs(
      "usage: xcvd [--port=N] [--state-dir=DIR] [--max-jobs=N] [--verbose]\n"
      "            [--no-job-traces] [--faults=SPEC]\n"
      "\n"
      "Runs the xcv verification daemon on 127.0.0.1.\n"
      "  --port=N        listen port, 0-65535 (default 7070; 0 = ephemeral,\n"
      "                  printed)\n"
      "  --state-dir=DIR queue journal, job checkpoints, per-job traces,\n"
      "                  and the shared verdict cache (default: xcvd-state)\n"
      "  --max-jobs=N    campaigns admitted concurrently, >= 1 (default 1)\n"
      "  --verbose       log scheduling decisions on stderr\n"
      "  --no-job-traces skip per-job span timelines (GET\n"
      "                  /v1/campaigns/:id/trace then 404s)\n"
      "  --faults=SPEC   arm fault-injection points (also: XCV_FAULTS)\n"
      "\n"
      "GET /v1/metrics serves the process metrics registry in Prometheus\n"
      "text form; XCV_NO_METRICS=1 disables metric collection.\n",
      out);
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  xcv::service::DaemonOptions options;
  try {
    // The same --key=value dialect as xcv (api::SplitArgs): a typo'd flag
    // is a usage error that names the nearest real one.
    const xcv::api::ArgList args = xcv::api::SplitArgs(argc, argv);
    if (args.flags.count("help") > 0) return Usage(stdout);
    XCV_CHECK_MSG(args.operands.empty(),
                  "unexpected argument '" << args.operands.front() << "'");
    xcv::api::RejectUnknownFlags(
        args.flags, {"help", "port", "state-dir", "max-jobs", "verbose",
                     "no-job-traces", "faults"});
    options.port =
        static_cast<int>(xcv::api::FlagInteger(args.flags, "port", 7070, 0,
                                               65535));
    options.max_concurrent_jobs = static_cast<int>(xcv::api::FlagInteger(
        args.flags, "max-jobs", options.max_concurrent_jobs, 1,
        std::numeric_limits<int>::max()));
    if (const auto it = args.flags.find("state-dir"); it != args.flags.end())
      options.state_dir = it->second;
    options.verbose = args.flags.count("verbose") > 0;
    options.job_traces = args.flags.count("no-job-traces") == 0;
    if (const auto it = args.flags.find("faults"); it != args.flags.end())
      xcv::support::fault::ArmFromSpec(it->second);
  } catch (const xcv::InternalError& e) {
    std::fprintf(stderr, "xcvd: %s\n", e.what());
    return Usage(stderr);
  }
  try {
    xcv::support::fault::ArmFromEnv();
    xcv::obs::InitMetricsFromEnv();

    xcv::service::Daemon daemon(options);
    daemon.Start();
    // The bound port on stdout is the one machine-read line xcvd prints:
    // scripts that start us with --port=0 read it to find the daemon.
    std::printf("xcvd listening on 127.0.0.1:%d\n", daemon.port());
    std::fflush(stdout);

    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    while (g_signalled == 0 && !daemon.ShutdownRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Graceful stop: running jobs checkpoint and re-queue, the journal and
    // the shared cache land on disk. A restart picks everything back up.
    daemon.Stop();
    return 0;
  } catch (const xcv::InternalError& e) {
    std::fprintf(stderr, "xcvd: %s\n", e.what());
    return 2;
  }
}
