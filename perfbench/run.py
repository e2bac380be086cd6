#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload trs_sharded --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. On first use it configures and builds the
workload binary from the checkout's own sources into .bench_build/ (cmake,
RelWithDebInfo); later runs only rebuild what changed. The binary runs in
its own process; its output is relayed, and the last line of stdout is the
result JSON. Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_workload")
WORKLOADS = ("trs_sharded", "serve_mutations", "overlay_tenants")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench_workload",
                      "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build step failed: " + " ".join(cmd))


def source_id():
    """The commit, or a content hash of the sources when there is no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke size for tests")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--commit", source_id()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
