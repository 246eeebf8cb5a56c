#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload tiny, untraced and
traced, and checks that each prints a correct result carrying every
metric BENCHMARK.json names for that mode, with its unit; then checks
that the correctness gate fails a run whose batch reference is perturbed.

    python3 pdxbench/smoke_test.py

Exits 0 when every check passes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check_spec(bench, spec, failures):
    """The fixed BENCHMARK.json schema and its agreement with spec.json."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        failures.append("BENCHMARK.json keys %s" % sorted(bench))
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)):
        failures.append("a metric name is used twice")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            failures.append("bad metric name or unit: %s" % m)
        if m["name"] not in spec["metrics"]:
            failures.append("%s is missing from spec.json" % m["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or m["bound"] > 0.25:
            failures.append("bad end-to-end entry %s" % m)
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"]):
        failures.append("setup_s is missing")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or w["name"] not in spec["workloads"]:
            failures.append("bad workload entry %s" % w)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    failures = []
    check_spec(bench, spec, failures)
    for w in bench["workloads"]:
        modes = ((0, bench["end_to_end"]), (1, bench["per_layer"]))
        for trace, wanted in modes:
            proc, result = run(w["name"], trace)
            tag = "%s trace %d" % (w["name"], trace)
            if proc.returncode != 0 or result is None:
                failures.append("%s: exit %d\n%s" % (tag, proc.returncode,
                                                     proc.stdout[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["attempted"] < 1:
                failures.append("%s: not correct" % tag)
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                failures.append("%s: metric set differs from BENCHMARK.json"
                                % tag)
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures.append("%s: %s not printed with unit %s"
                                    % (tag, m["name"], m["unit"]))
            print("ok: %s (%d ops)" % (tag, result["attempted"]))
        proc, result = run(w["name"], 0, "--corrupt-reference")
        if proc.returncode == 0 or result is None or result["correct"]:
            failures.append("%s: the gate passed a perturbed reference"
                            % w["name"])
        else:
            print("ok: %s gate fails a perturbed reference" % w["name"])
    for f in failures:
        print("FAIL: " + f)
    print("smoke test: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
