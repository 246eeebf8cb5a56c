#!/usr/bin/env python3
"""End-to-end benchmark of the physical-design selection library.

Builds the harness (pdxbench/CMakeLists.txt, Release) against the
library sources in src/, runs one workload for a fixed time at a given
seed, and prints as its last line one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, measured by a traced run
that also writes its spans next to the build.

    python3 pdxbench/run.py --workload cli-compare --seed 1 \
        --seconds 30 --trace 0

Exits non-zero without a result when the library cannot be built, and
non-zero after the result line when an output fails the correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-compare", "select-skewed", "serve-mix")
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "pdxbench"


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: library sources (src/) not found next to pdxbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "pdx_bench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("error: build timed out")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build failed: " + " ".join(cmd))
            return None
    binary = out / "pdx_bench"
    return binary if binary.is_file() else None


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "none"
    if Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the smoke test only")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one batch reference (gate self-test)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", str(out / "data"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        log("error: the harness did not finish in %ds" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log("error: the harness printed no result (exit %d)" % proc.returncode)
        return 3
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    # Keep exactly the metrics of this mode; every one must be measured,
    # except per-layer metrics of layers the workload does not exercise,
    # which are 0 there by definition (spec.json "applies_to").
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    correct = bool(raw["correct"]) and proc.returncode == 0
    errors = list(raw.get("errors", []))
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = raw["metrics"].get(name)
        applies = args.workload in spec["metrics"][name]["applies_to"]
        if got is None:
            if applies:
                correct = False
                errors.append("metric %s was not measured" % name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            correct = False
            errors.append("metric %s has unit %s, expected %s"
                          % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}

    for e in errors:
        print("error: " + e)
    print("stamp: " + json.dumps(raw["stamp"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
