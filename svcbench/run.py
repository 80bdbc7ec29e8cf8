#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the hosted marketplace service.

    python3 svcbench/run.py --workload paper_fleet --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and compiles the
benchmark (svcbench/CMakeLists.txt builds the repository's libraries from
src/) into .bench_build/; later runs only check that the build is current.
The driver binary checks the service's outputs before it prints anything;
its last line of standard output is the result object, which this script
passes through. Any failed build, check or run exits non-zero without a
result line.

The write-ahead logs go to .bench_build/wal, which the run mounts as a
private tmpfs (a mount namespace of its own, via unshare) so that the
shared disk's fsync latency stays out of the numbers while every fsync,
rename and CRC still runs and nothing is written outside the checkout.
The mount disappears with the process. Where namespaces are not permitted
the WALs stay on disk and the output says so.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WAL_DIR = os.path.join(BUILD_DIR, "wal")
WORKLOADS = ("paper_fleet", "large_m", "crash_recover")
# Mounts a tmpfs at $0, then runs the remaining arguments in its place.
MOUNT_AND_EXEC = 'mount -t tmpfs -o size=4g,mode=0700 svcbench-wal "$0" && exec "$@"'

# A run must end within 180 s (the first one may also spend up to 900 s
# building); keep a margin for teardown.
RUN_DEADLINE_S = 170.0
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print("svcbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to svcbench/; run from the "
             "root of a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                fail("cmake configure failed; see " + log_path)
        if subprocess.call(["cmake", "--build", BUILD_DIR, "--target",
                            "svcbench", "-j", BUILD_JOBS],
                           stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "svcbench")


def tmpfs_prefix():
    """The unshare invocation that can give this process a private tmpfs
    at WAL_DIR, or [] when none can (the run then reports the disk)."""
    os.makedirs(WAL_DIR, exist_ok=True)
    if not shutil.which("unshare"):
        return []
    for flags in (["--mount"], ["--user", "--map-root-user", "--mount"]):
        probe = ["unshare"] + flags + ["sh", "-c", MOUNT_AND_EXEC, WAL_DIR,
                                       "true"]
        if subprocess.call(probe, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            return ["unshare"] + flags + ["sh", "-c", MOUNT_AND_EXEC,
                                          WAL_DIR]
    return []


def run(binary, args, deadline):
    command = tmpfs_prefix() + [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", os.path.join(BUILD_DIR, "run"), "--wal-dir", WAL_DIR]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded the time limit")
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds 1..600")
    binary = build()
    deadline = time.time() + RUN_DEADLINE_S
    code, out = run(binary, args, deadline)
    lines = out.rstrip("\n").splitlines()
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark run failed with exit code %d" % code)
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] is True)
    except (IndexError, ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        fail("the run printed no valid result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
