#!/usr/bin/env python3
"""poolstream benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a ``poolstream`` CLI call (see workloads.py), run in this
process through ``poolstream.cli.main`` the way scripts/run_all_experiments.py
runs it: a closed loop, one process, one thread, trials one after another.
A run makes one full-size gate call in a fresh process, which also gives the
peak memory, then times shorter calls ("reps") until ``--seconds`` have
passed.

``--trace 0`` prints the end-to-end metrics; its only instrumentation is the
per-trial timing hook.  Times are scaled by a host-speed yardstick measured
next to each rep (see workloads.py); the report line also gives them
unscaled.  ``--trace 1`` alternates untraced and traced reps and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  Every call
must pass the correctness gates; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.

``--smoke`` shrinks every workload to a few dozen trials (see smoke.py).
The program is imported from ``src/`` next to this directory; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
YARDSTICK = HERE / "yardstick"

from instrument import Tracer, TrialHook  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    counter_identity_errors,
    csv_mean_errors,
    describe,
    rep_argv,
    verdict,
    warmup_argv,
)

SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "trials_per_s": "1/s",
    "trial_us_p50": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.trial_rng.us": "us",
    "core.first_next.us": "us",
    "core.run_stream.self_us": "us",
    "core.next.ns": "ns",
    "core.next.calls": "count",
    "core.reveal.calls": "count",
    "core.cap_exceeded": "count",
    "emulators.run.self_us": "us",
    "emulators.utility.calls": "calls/trial",
    "emulators.select_next.us": "us",
    "emulators.select_next.calls": "count",
    "emulators.accept_ratio": "ratio",
    "emulators.attempts_per_round": "attempts",
    "emulators.wasted_reveal_ratio": "ratio",
    "constructions.select_next.us": "us",
    "constructions.select_next.calls": "count",
    "constructions.permutation_from_unit.calls": "count",
    "constructions.incomplete_pool": "count",
    "secretary.policy_table.s": "s",
    "secretary.optimal_policy.us": "us",
    "secretary.optimal_policy.calls": "count",
    "secretary.cached_policy.calls": "count",
    "stats.exact.s": "s",
    "stats.canonicalize.us": "us",
    "stats.tv_distance.us": "us",
    "stats.mean_ci.us": "us",
    "stats.support": "count",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.trials": "count",
}


def import_poolstream() -> SimpleNamespace:
    """Import the package from src/ of this checkout, never from elsewhere."""
    if not (SRC / "poolstream" / "__init__.py").is_file():
        sys.exit(f"error: no poolstream source under {SRC}")
    sys.path.insert(0, str(SRC))
    from poolstream import cli, constructions, core, emulators, secretary, stats
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: poolstream imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, core=core, emulators=emulators,
                           constructions=constructions, secretary=secretary,
                           stats=stats)


def import_yardstick():
    """The frozen copy of the package that gauges host speed (workloads.py)."""
    sys.path.insert(0, str(YARDSTICK))
    from poolstream_frozen import cli
    return cli


def environment() -> dict:
    import numpy
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown: {exc}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "poolstream").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def fresh_process(directory: Path, package: str, argv: list[str]) -> dict:
    """One CLI call of ``package`` in a fresh process (probe.py): its exit
    code, seconds from import to the end of the call, and peak memory."""
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(directory), package, *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: {package} probe of {describe(argv)} failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def run_gate(w, seed: int, smoke: bool) -> dict:
    """The gate call: the workload at gate size with the default TV
    threshold, in a fresh process that makes no other call, so that its peak
    memory is the program's alone (peak_rss_mb)."""
    argv = rep_argv(w, seed, str(OUT_DIR / f"gate-{w.name}.csv"), smoke, gate=True)
    probe = fresh_process(SRC, "poolstream", argv)
    errors, status = [], None
    if probe["code"] != 0:
        errors.append(f"exit code {probe['code']}")
    else:
        with open(argv[argv.index("--out") + 1]) as fh:
            status = verdict(w, argv, fh.read())
        if status not in ("PASS", "OK"):
            errors.append(f"verdict {status}")
    return {"argv": argv, "status": status, "peak_rss_mb": probe["peak_rss_mb"],
            "errors": errors}


def measure_setup(w, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Seconds for a fresh process to import poolstream and finish the
    warm-up: (scaled, unscaled) per probe.  Each probe is paired with the
    same probe of the yardstick package, in alternating order."""
    argv = warmup_argv(w, seed, str(OUT_DIR / f"setup-{w.name}.csv"))
    packages = {"program": (SRC, "poolstream"), "yardstick": (YARDSTICK, "poolstream_frozen")}
    scaled, raw = [], []
    for i in range(probes):
        seconds = {}
        for target in sorted(packages, reverse=i % 2 == 1):
            probe = fresh_process(*packages[target], argv)
            if probe["code"] != 0:
                sys.exit(f"error: {target} warm-up run exited with {probe['code']}")
            seconds[target] = probe["seconds"]
        raw.append(seconds["program"])
        scaled.append(seconds["program"] * w.setup_yardstick_s / seconds["yardstick"])
    return scaled, raw


def yardstick_call(yardstick_cli, argv: list[str]) -> tuple[float, str]:
    """The frozen copy's (seconds, CSV sha256) for a CLI call."""
    out = argv[argv.index("--out") + 1]
    start = time.perf_counter()
    code = yardstick_cli.main(argv)
    with open(out, "rb") as fh:
        data = fh.read()
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"error: yardstick call {describe(argv)} exited with {code}")
    return elapsed, hashlib.sha256(data).hexdigest()


def run_rep(ps, w, argv: list[str], instrument) -> dict:
    """One timed CLI call, from the call until its CSV is read back and its
    verdict parsed.  Correctness gates run after the clock stops."""
    out = argv[argv.index("--out") + 1]
    instrument.install()
    try:
        start = time.perf_counter()
        code = ps.cli.main(argv)
        with open(out, "rb") as fh:
            data = fh.read()
        text = data.decode()
        status = verdict(w, argv, text) if code == 0 and w.trials is not None else None
        elapsed = time.perf_counter() - start
    finally:
        instrument.uninstall()
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    else:
        status = status or verdict(w, argv, text)
        if status not in ("PASS", "OK"):
            errors.append(f"verdict {status}")
    return {"argv": argv, "code": code, "status": status, "verdict_s": elapsed,
            "sha256": hashlib.sha256(data).hexdigest(), "csv_bytes": len(data),
            "text": text, "errors": errors}


def hooked_rep(ps, hook: TrialHook, w, argv: list[str]) -> dict:
    """A rep with the per-trial hook: adds the trial metrics and the gates on
    per-trial counters."""
    hook.reset()
    rep = run_rep(ps, w, argv, hook)
    rep.update(attempted=hook.attempted, failed=hook.failed,
               sum_n_iter=sum(hook.n_iter), sum_n_sel=sum(hook.n_sel),
               latencies_ns=hook.latencies_ns, completed=len(hook.latencies_ns))
    if not hook.latencies_ns:
        rep["errors"].append("no completed trial")
    if rep["code"] == 0 and w.trials is not None:
        rep["errors"] += counter_identity_errors(w, hook.n_iter, hook.n_sel)
        rep["errors"] += csv_mean_errors(w, rep["text"], hook.n_iter, hook.n_sel, hook.failed)
    del rep["text"]  # reps are kept to the end; a 100k-row CSV is 2.6 MB
    return rep


def trial_metrics(reps: list[dict], scaled: bool) -> dict:
    """verdict_s as the median over reps; the trial figures over the trials
    of all reps pooled.  If ``scaled``, every time is multiplied by its rep's
    speed (workloads.py)."""
    speed = (lambda r: r["speed"]) if scaled else (lambda r: 1.0)
    lat = sorted(x * speed(r) for r in reps for x in r["latencies_ns"])
    return {"verdict_s": statistics.median(r["verdict_s"] * speed(r) for r in reps),
            "trials_per_s": len(lat) / (sum(lat) * 1e-9),
            "trial_us_p50": _rank(lat, 0.50) / 1e3,
            "trial_us_p99": _rank(lat, 0.99) / 1e3}


def _rank(sorted_values: list, p: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * p) - 1)]


def run_untraced(ps, w, args) -> tuple[dict, dict, list[str]]:
    setup, setup_raw = measure_setup(w, args.seed, 1 if args.smoke else SETUP_PROBES)
    gate = run_gate(w, args.seed, args.smoke)
    yardstick = import_yardstick()
    hook = TrialHook(ps)
    # Warm both packages' caches in this process before anything is timed.
    warmup = hooked_rep(ps, hook, w, warmup_argv(w, args.seed,
                                                 str(OUT_DIR / f"warmup-{w.name}.csv")))
    yardstick_call(yardstick, warmup_argv(w, args.seed, str(OUT_DIR / f"yardstick-{w.name}.csv")))
    hook_overhead_ns = hook.overhead_ns()
    reps, identical = [], True
    deadline = time.perf_counter() + args.seconds
    while not reps or time.perf_counter() < deadline:
        # Each rep draws other trials, so that the tail percentiles rest on
        # many distinct trials; the seeds follow from --seed alone.
        seed = rep_seed(args.seed, len(reps))
        argv = rep_argv(w, seed, str(OUT_DIR / f"run-{w.name}.csv"), args.smoke)
        yard_argv = rep_argv(w, seed, str(OUT_DIR / f"yardstick-{w.name}.csv"), args.smoke)
        # Alternate which goes first so that drift is shared evenly.
        if len(reps) % 2:
            yard_s, digest = yardstick_call(yardstick, yard_argv)
            rep = hooked_rep(ps, hook, w, argv)
        else:
            rep = hooked_rep(ps, hook, w, argv)
            yard_s, digest = yardstick_call(yardstick, yard_argv)
        rep["speed"] = w.yardstick_s / yard_s
        reps.append(rep)
        identical = identical and digest == rep["sha256"]
    # The same arguments must give the same bytes: repeat the first rep.
    again = hooked_rep(ps, hook, w, reps[0]["argv"])
    errors = _rep_errors([gate, warmup] + reps + [again]) + _determinism_errors([reps[0], again])
    scaled = trial_metrics(reps, scaled=True)
    # Reported, not a metric: host interference spikes inside single trials
    # spread it by up to 30% between runs even when scaled.
    p99 = scaled.pop("trial_us_p99")
    metrics = {"setup_s": statistics.median(setup), **scaled, "peak_rss_mb": gate["peak_rss_mb"]}
    report = {
        "reps": len(reps),
        "trials_per_rep": reps[0]["completed"],
        "trial_samples": sum(r["completed"] for r in reps),
        "trial_us_p99": p99,
        "unscaled": {"setup_s": statistics.median(setup_raw),
                     **trial_metrics(reps, scaled=False)},
        "speed_per_rep": [r["speed"] for r in reps],
        "unscaled_verdict_s_per_rep": [r["verdict_s"] for r in reps],
        "setup_probes": setup_raw,
        "hook_overhead_us_per_trial": hook_overhead_ns / 1e3,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "csv_identical": identical,
        "gate_verdict": gate["status"],
    }
    if w.trials is not None:
        completed = sum(r["completed"] for r in reps)
        report.update(
            failed_frac=report["failed"] / report["attempted"],
            mean_n_iter=sum(r["sum_n_iter"] for r in reps) / completed,
            mean_n_sel=sum(r["sum_n_sel"] for r in reps) / completed)
    return metrics, report, errors


def run_traced(ps, w, args) -> tuple[dict, dict, list[str]]:
    hook = TrialHook(ps)
    tracer = Tracer(ps)
    # The set-up run is traced in a fresh process state, so it shows the
    # work that fills caches (secretary.optimal_policy for the trial workloads).
    tracer.begin("setup")
    setup = run_rep(ps, w, warmup_argv(w, args.seed, str(OUT_DIR / f"warmup-{w.name}.csv")),
                    tracer)
    gate = run_gate(w, args.seed, args.smoke)
    argv = rep_argv(w, args.seed, str(OUT_DIR / f"run-{w.name}.csv"), args.smoke)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        # Alternate which side goes first so drift is shared evenly.
        first_traced = len(traced) % 2 == 1
        for is_traced in (first_traced, not first_traced):
            if is_traced:
                tracer.begin(f"rep{len(traced)}")
                traced.append(run_rep(ps, w, argv, tracer))
            else:
                plain.append(hooked_rep(ps, hook, w, argv))
    tracer.save(str(OUT_DIR / f"trace-{w.name}.npz"))
    _, yard_digest = yardstick_call(
        import_yardstick(),
        rep_argv(w, args.seed, str(OUT_DIR / f"yardstick-{w.name}.csv"), args.smoke))

    setup_totals = tracer.rep_totals(0)
    per_rep = [layer_metrics(w, tracer.rep_totals(i + 1), tracer.counts[i + 1],
                             setup_totals, rep["csv_bytes"])
               for i, rep in enumerate(traced)]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (statistics.median(r["verdict_s"] for r in traced)
                                      / statistics.median(r["verdict_s"] for r in plain) - 1)

    errors = _rep_errors([setup, gate] + plain + traced)
    errors += _determinism_errors(plain + traced)
    # The traced counts are exact: they must equal the untraced counters.
    expected = {"core.next.calls": plain[0]["sum_n_iter"],
                "core.reveal.calls": plain[0]["sum_n_sel"]}
    for m in per_rep:
        for name, value in expected.items():
            if w.trials is not None and m[name] != value:
                errors.append(f"traced {name}={m[name]} != untraced sum {value}")
    report = {
        "reps": len(traced),
        "attempted": sum(r["attempted"] for r in plain) + len(traced) * plain[0]["attempted"],
        "failed": sum(r["failed"] for r in plain) + sum(
            c["core.cap_exceeded"] + c["constructions.incomplete_pool"]
            for c in tracer.counts[1:]),
        "spans": len(tracer.name),
        "untraced_sum_n_iter": plain[0]["sum_n_iter"],
        "untraced_sum_n_sel": plain[0]["sum_n_sel"],
        "csv_identical": yard_digest == plain[0]["sha256"],
        "csv_sha256": plain[0]["sha256"],
        "trace_file": str((OUT_DIR / f"trace-{w.name}.npz").relative_to(ROOT)),
    }
    return metrics, report, errors


def layer_metrics(w, totals: dict, counts, setup_totals: dict, csv_bytes: int) -> dict:
    """Per-layer figures of one traced rep."""
    def calls(name):
        return totals[name][0]

    def per_call(name, scale, table=totals, own=False):
        n, total, self_ns = table[name]
        return (self_ns if own else total) / n / scale if n else 0.0

    trials, n_iter, n_sel = counts["trials"], counts["n_iter"], counts["n_sel"]
    width = sum(w.m - i + 1 for i in range(1, w.q + 1))  # accepted remainder widths
    return {
        "core.trial_rng.us": per_call("core.trial_rng", 1e3),
        "core.first_next.us": per_call("core.first_next", 1e3),
        "core.run_stream.self_us": per_call("core.run_stream", 1e3, own=True),
        "core.next.ns": per_call("core.next", 1, own=True),
        "core.next.calls": calls("core.next") + calls("core.first_next"),
        "core.reveal.calls": calls("core.reveal"),
        "core.cap_exceeded": counts["core.cap_exceeded"],
        "emulators.run.self_us": per_call("emulators.run", 1e3, own=True),
        "emulators.utility.calls": counts["emulators.utility"] / trials if trials else 0.0,
        "emulators.select_next.us": per_call("emulators.select_next", 1e3),
        "emulators.select_next.calls": calls("emulators.select_next"),
        "emulators.accept_ratio": (trials * width / n_iter
                                   if w.emulator == "gen" and n_iter else 0.0),
        "emulators.attempts_per_round": (counts["round_attempts"] / counts["rounds"]
                                         if counts["rounds"] else 0.0),
        "emulators.wasted_reveal_ratio": (n_sel - trials * w.q) / n_sel if n_sel else 0.0,
        "constructions.select_next.us": per_call("constructions.select_next", 1e3),
        "constructions.select_next.calls": calls("constructions.select_next"),
        "constructions.permutation_from_unit.calls":
            counts["constructions.permutation_from_unit"],
        "constructions.incomplete_pool": counts["constructions.incomplete_pool"],
        "secretary.policy_table.s": totals["secretary.policy_table"][1] / 1e9,
        "secretary.optimal_policy.us": per_call("secretary.optimal_policy", 1e3,
                                                table=setup_totals),
        "secretary.optimal_policy.calls": setup_totals["secretary.optimal_policy"][0],
        "secretary.cached_policy.calls": counts["secretary.cached_policy"],
        "stats.exact.s": totals["stats.exact"][1] / 1e9,
        "stats.canonicalize.us": per_call("stats.canonicalize", 1e3),
        "stats.tv_distance.us": per_call("stats.tv_distance", 1e3),
        "stats.mean_ci.us": per_call("stats.mean_ci", 1e3),
        "stats.support": counts["stats.support"],
        "cli.main.self_s": totals["cli.main"][2] / 1e9,
        "cli.csv_bytes": csv_bytes,
        "trace.trials": trials,
    }


def rep_seed(seed: int, rep: int) -> int:
    """CLI seed of timed rep ``rep``: the run's seed for rep 0, then a fixed
    odd stride modulo 2**64."""
    return (seed + rep * 0x9E3779B97F4A7C15) % 2**64


def _rep_errors(reps: list[dict]) -> list[str]:
    return [f"{describe(r['argv'])}: {e}" for r in reps for e in r["errors"]]


def _determinism_errors(reps: list[dict]) -> list[str]:
    digests = {r["sha256"] for r in reps}
    return [] if len(digests) == 1 else [f"same arguments gave {len(digests)} different CSVs"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts and one set-up probe")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    w = WORKLOADS[args.workload]
    ps = import_poolstream()
    OUT_DIR.mkdir(exist_ok=True)

    values, report, errors = (run_traced if args.trace else run_untraced)(ps, w, args)
    units = PER_LAYER if args.trace else END_TO_END
    report.update(workload=w.name, seed=args.seed, trace=args.trace,
                  environment=environment(), errors=errors)
    for name, unit in units.items():
        print(f"{name:42s} {values[name]:>14.6g} {unit}")
    if not report["csv_identical"]:
        print(f"warning: {w.name} CSV differs from the one the frozen seed-commit "
              f"package writes for the same arguments", file=sys.stderr)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
