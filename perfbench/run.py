#!/usr/bin/env python3
"""Builds simdb from this checkout's sources and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (RelWithDebInfo, the repository's
default build type); the database files and trace NDJSON of a run go to
.bench_build/run. Build output goes to standard error. Standard output is the
benchmark's report, whose last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit status is 0 only
when the build succeeded and every checked result was correct.

--tiny and --wrong-expected are for perfbench/smoke_test.py: tiny data sizes,
and deliberately wrong expected answers that the checks must catch.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "simdb_perfbench")
# A run gets this long before it is killed; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "tests", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def build():
    """Configures once, then brings the build up to date. Returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "simdb_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lookup", "scan", "mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    print(f"perfbench: build ready in {time.monotonic() - started:.1f} s", file=sys.stderr)

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", WORK_DIR, "--revision", revision()]
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    try:
        # subprocess.run kills the child and waits for it on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
