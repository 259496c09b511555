#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny trial counts.

    python3 perfbench/smoke.py

For every workload, runs run.py --smoke with --trace 0 and --trace 1 and
checks that the run is correct, that it emits exactly the metric names and
units of BENCHMARK.json, that end-to-end values are positive, that the
traced exact counts equal the untraced ones (core.next.calls == sum n_iter,
core.reveal.calls == sum n_sel) and that the CSV matches the one the frozen
seed-commit package writes.  Last, it runs the benchmark in a directory holding only
BENCHMARK.json and this directory, where it must fail without a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT
from workloads import WORKLOADS


def run_bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    for name, w in WORKLOADS.items():
        for trace in (0, 1):
            done = run_bench(ROOT, name, trace)
            tag = f"{name} --trace {trace}"
            check(done.returncode == 0, f"{tag}: exit {done.returncode}\n{done.stderr}")
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{tag}: not correct: {report['errors']}")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{tag}: counts")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: metric names or units differ")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{tag}: {metric} is not a finite number")
                check(trace or value > 0, f"{tag}: {metric} is not positive")
            check(report["csv_identical"] is True, f"{tag}: CSV differs from the frozen copy's")
            if trace and w.trials is not None:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                check(values["core.next.calls"] == report["untraced_sum_n_iter"],
                      f"{tag}: core.next.calls != sum n_iter")
                check(values["core.reveal.calls"] == report["untraced_sum_n_sel"],
                      f"{tag}: core.reveal.calls != sum n_sel")
                check(values["trace.trials"] == w.trials // 100, f"{tag}: trace.trials")
            print(f"ok   {tag}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run_bench(bare, "short-trials", 0)
    finally:
        shutil.rmtree(bare)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without src/ the benchmark must fail and print no result")
    print("ok   fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
