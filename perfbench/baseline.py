#!/usr/bin/env python3
"""Run the benchmark on several seeds and record the baseline.

    python3 perfbench/baseline.py

Runs ``run.py --trace 0`` on seeds 1..10 for every workload and prints, per
end-to-end metric, the median and the quartile spread (q3 - q1) / median
next to its bound in BENCHMARK.json.  The values, medians, the unscaled
spreads and the frozen yardstick's medians are written to
perfbench/baseline.json with an environment stamp.  Exits 1 if a spread
exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, environment
from workloads import WORKLOADS

BASELINE = HERE / "baseline.json"
SEEDS = range(1, 11)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def seeded_runs(name: str, seconds: int, bounds: dict) -> tuple[dict, bool]:
    values: dict[str, list[float]] = {}
    unscaled: dict[str, list[float]] = {}
    yardstick: list[float] = []
    for seed in SEEDS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"error: {name} seed {seed} exited {done.returncode}:\n{done.stderr}")
        lines = done.stdout.splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
        if not result["correct"]:
            sys.exit(f"error: {name} seed {seed} is not correct: {report['errors']}")
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
        for metric, value in report["unscaled"].items():
            unscaled.setdefault(metric, []).append(value)
        speeds = report["speed_per_rep"]
        yardstick.append(WORKLOADS[name].yardstick_s / statistics.median(speeds))
    summary = {"values": values, "unscaled_values": unscaled,
               "yardstick_s_median": statistics.median(yardstick), "metrics": {}}
    steady = True
    for metric, vals in values.items():
        q = quartiles(vals)
        q["unscaled_spread"] = quartiles(unscaled[metric])["spread"] if metric in unscaled else None
        summary["metrics"][metric] = q
        flag = ""
        if q["spread"] > bounds[metric]:
            flag, steady = "  OVER BOUND", False
        elif q["spread"] > bounds[metric] / 3:
            flag = "  over a third of the bound"
        unscaled_note = (f"  (unscaled {q['unscaled_spread']:.4f})"
                         if q["unscaled_spread"] is not None else "")
        print(f"{name:16s} {metric:14s} median {q['median']:12.6g}  spread {q['spread']:7.4f}"
              f"{unscaled_note}  bound {bounds[metric]}{flag}", flush=True)
    return summary, steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"environment": environment(), "run_seconds": spec["run_seconds"],
                "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    steady = True
    for name in WORKLOADS:
        baseline["workloads"][name], ok = seeded_runs(name, spec["run_seconds"], bounds)
        steady = steady and ok
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
