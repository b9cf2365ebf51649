#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload (those in BENCHMARK.json, and mixed, which is not gated)
it runs perfbench/run.py at tiny sizes for one second and checks that:
  * --trace 0 prints exactly the end_to_end metrics, --trace 1 exactly the
    per_layer metrics, each with the unit BENCHMARK.json gives, both in the
    report lines and in the final JSON object;
  * end-to-end values are never 0 and every result is correct;
  * on lookup and scan the layer self times plus api.unattributed_us add
    up to the traced Database::ExecuteQuery time;
  * with --wrong-expected (every expected answer perturbed) the run reports
    "correct": false and exits non-zero.
It also checks that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/. Exits non-zero on any
failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, lines, result


def check_metrics(name, lines, result, spec, nonzero):
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    check(set(got) == set(want), f"{name}: metric names match BENCHMARK.json")
    for metric, unit in want.items():
        entry = got.get(metric, {})
        check(entry.get("unit") == unit, f"{name}: {metric} has unit {unit} in JSON")
        printed = any(re.match(rf"^{re.escape(metric)}\s+\S+\s+{re.escape(unit)}(\s|$)", l)
                      for l in lines)
        check(printed, f"{name}: {metric} printed with its unit")
        if nonzero:
            check(isinstance(entry.get("value"), (int, float)) and entry["value"] > 0,
                  f"{name}: {metric} is not 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # mixed is not in BENCHMARK.json (see README.md) but must keep working.
    for w in [w["name"] for w in bench["workloads"]] + ["mixed"]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            name = f"{w} --trace {trace}"
            proc, lines, result = run(w, trace)
            check(proc.returncode == 0 and result is not None, f"{name}: exits 0 with a JSON result")
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: JSON has exactly correct/attempted/failed/metrics")
            check(result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name}: correct, attempted >= 1, failed == 0")
            check_metrics(name, lines, result, spec, nonzero=trace == 0)
            if trace == 1 and w in ("lookup", "scan"):
                split = next((l for l in lines if l.startswith("# split:")), "")
                m = re.search(r"= ([\d.]+) us; traced ExecuteQuery ([\d.]+) us", split)
                check(m is not None and abs(float(m.group(1)) - float(m.group(2))) < 0.01,
                      f"{name}: layer self times + unattributed = traced statement time")
        proc, lines, result = run(w, 0, "--wrong-expected")
        check(proc.returncode != 0 and result is not None and result["correct"] is False,
              f"{w}: wrong expected answers fail the run")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    proc, lines, result = run("lookup", 0, cwd=bare)
    check(proc.returncode != 0 and result is None,
          "benchmark alone (no simdb sources) fails without printing a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
