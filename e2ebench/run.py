#!/usr/bin/env python3
"""End-to-end benchmark of xcverifier: builds xcv_e2e, runs one workload.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload cold-matrix --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --regen-golden

The program (e2ebench/src, built with e2ebench/CMakeLists.txt into
$CARGO_TARGET_DIR or .bench_build) prints a JSON line with the host
fingerprint and sample counts, then the result as the last line of stdout.
Build output goes to stderr. See e2ebench/CATALOG.md for the workloads and
metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-matrix", "warm-replay", "service-mixed")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def commit_id():
    """The checkout's git commit when it is one, else a source digest."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for sub in ("src", "apps", "CMakeLists.txt"):
        top = os.path.join(ROOT, sub)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds xcv_e2e; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("e2ebench: no xcverifier sources next to e2ebench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "xcv_e2e", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "xcv_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.regen_golden):
        ap.error("give --workload, --self-test or --regen-golden")

    program = build()
    golden = os.path.join(HERE, "golden.csv")
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    if args.self_test:
        cmd = [program, "--self-test", "--golden", golden]
    elif args.regen_golden:
        cmd = [program, "--regen-golden", golden]
    else:
        cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--golden", golden, "--work-dir", work,
               "--commit", commit_id(),
               "--trace-out", os.path.join(
                   build_dir(), "trace-%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("e2ebench: xcv_e2e exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
