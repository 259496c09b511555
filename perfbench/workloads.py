"""The benchmark's workloads: CLI argument lists and the gates each run must pass.

Every workload is one ``poolstream`` CLI call, repeated.  Fixture, emulator,
m and q are fixed per workload.  Each run first makes one *gate call* of
``gate_trials`` trials, then times many calls ("reps") of ``trials`` trials.
The gate sizes make a false FAIL of a correct emulator negligible: sampling
from the exact law, the 0.02 TV threshold sits 8.0 (rejection-coded) and 8.7
(short-trials) standard deviations above the mean TV, and none of 2,000,000
and 400,000 simulated gate calls exceeded it.  (At 4000 trials
rejection-coded failed on 1.6% of seeds by chance.)  Reps are short (about
0.4 s) so that each sits next to its yardstick call within one spell of host
load (see below); equivalence reps pass ``--tv-threshold 1``, because a few
thousand trials cannot meet 0.02 and the gate call already checked it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

# Host-speed yardstick.  Load from other tenants of a shared machine slows a
# run by up to a third, for seconds to minutes at a time, and slows a frozen
# copy of the same code making the same call at the next moment by nearly the
# same factor.  So next to every timed call the benchmark makes the same call
# on yardstick/poolstream_frozen, the package as of the benchmark's first
# commit, and scales the call's times by yardstick_s / (that call's seconds).
# Times then read as seconds on a host where the frozen call takes
# yardstick_s.  yardstick_s and setup_yardstick_s are about what the frozen
# calls took when the benchmark was defined (2-core x86-64, Python 3.11,
# numpy 2.4); they must never change, or figures from different commits stop
# being comparable.


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]     # CLI arguments without --seed, --trials and --out
    trials: int | None        # trials per timed call; None for secretary-table
    gate_trials: int | None   # trials of the gate call
    emulator: str | None
    yardstick_s: float        # nominal seconds of the frozen timed call
    setup_yardstick_s: float  # nominal seconds of the frozen set-up probe
    m: int = 0
    q: int = 0

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "rejection-coded",
        ("equiv-test", "--fixture", "thm3-good-pool", "--emulator", "gen",
         "--m", "4", "--q", "2"),
        1000, 20000, "gen", 0.49, 0.18, 4, 2),
    Workload(
        "secretary-long",
        ("iter-bench", "--fixture", "greedy-max", "--emulator", "utility-stream",
         "--m", "10", "--q", "5"),
        1000, 3000, "utility-stream", 0.6, 0.18, 10, 5),
    Workload(
        "short-trials",
        ("equiv-test", "--fixture", "greedy-max-discrete", "--emulator", "nowait",
         "--m", "4", "--q", "2"),
        2500, 40000, "nowait", 0.33, 0.18, 4, 2),
    Workload(
        "secretary-table",
        ("secretary-table", "--n-max", "100000"),
        None, None, None, 1.1, 0.42),
)}

# Warm-up size for secretary-table: past n=256, so both the exact-Fraction
# and the harmonic-search branches of the policy code run.
_WARMUP_N_MAX = 300
# Smoke runs shrink trials by this factor and the table to this size.
_SMOKE_DIVISOR = 100
_SMOKE_N_MAX = 2000


def rep_argv(w: Workload, seed: int, out: str, smoke: bool = False,
             gate: bool = False) -> list[str]:
    """Arguments of one timed CLI call, or of the gate call."""
    argv = list(w.argv)
    if w.trials is None:
        if smoke:
            argv[argv.index("--n-max") + 1] = str(_SMOKE_N_MAX)
    else:
        trials = w.gate_trials if gate else w.trials
        if smoke:
            trials = max(trials // _SMOKE_DIVISOR, 2)
        argv += ["--trials", str(trials), "--seed", str(seed)]
        # A smoke run checks plumbing, not statistical power.
        if w.subcommand == "equiv-test" and (smoke or not gate):
            argv += ["--tv-threshold", "1"]
    return argv + ["--out", out]


def warmup_argv(w: Workload, seed: int, out: str) -> list[str]:
    """Arguments of the set-up run: the workload at its smallest size.

    Two trials, because iter-bench rejects fewer; the TV threshold is 1 so
    that a two-trial equivalence test still exits 0.
    """
    argv = list(w.argv)
    if w.trials is None:
        argv[argv.index("--n-max") + 1] = str(_WARMUP_N_MAX)
    else:
        argv += ["--trials", "2", "--seed", str(seed)]
        if w.subcommand == "equiv-test":
            argv += ["--tv-threshold", "1"]
    return argv + ["--out", out]


def describe(argv: list[str]) -> str:
    """A CLI call's arguments without the output path."""
    return " ".join(argv[:argv.index("--out")])


def verdict(w: Workload, argv: list[str], text: str) -> str:
    """The CSV's own verdict: PASS/FAIL (equiv-test), OK/VIOLATION
    (iter-bench) or, for the table, OK when it is complete and spot-checks
    against an independent computation."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    if w.subcommand == "equiv-test":
        return body[-1][header.index("status")]
    if w.subcommand == "iter-bench":
        statuses = {r[header.index("status")] for r in body} - {""}
        return "OK" if statuses == {"OK"} else "VIOLATION"
    n_max = int(argv[argv.index("--n-max") + 1])
    if [int(r[0]) for r in body] != list(range(1, n_max + 1)):
        return "INCOMPLETE"
    for n in (1, 2, 3, 4, 10, 50, 100, 1000, n_max):
        if n <= n_max:
            threshold, p = _secretary_row(n)
            row = body[n - 1]
            if int(row[1]) != threshold or abs(float(row[2]) - p) > 1e-9:
                return f"WRONG ROW n={n}"
    return "OK"


def _secretary_row(n: int) -> tuple[int, float]:
    """Optimal threshold and success probability, computed independently.

    phi(r) = (r-1)/n * sum_{j=r}^{n} 1/(j-1); exact argmax for small n, and
    for large n the smallest r with sum_{j=r}^{n-1} 1/j <= 1.
    """
    if n == 1:
        return 1, 1.0
    if n <= 100:
        phis = [Fraction(1, n)] + [
            Fraction(r - 1, n) * sum(Fraction(1, j - 1) for j in range(r, n + 1))
            for r in range(2, n + 1)]
        best = max(range(n), key=lambda i: (phis[i], -i))
        return best + 1, float(phis[best])
    tail = [0.0] * (n + 1)  # tail[r] = sum_{j=r}^{n-1} 1/j
    for j in range(n - 1, 0, -1):
        tail[j] = tail[j + 1] + 1.0 / j
    r = next(r for r in range(2, n + 1) if tail[r] <= 1.0)
    return r, (r - 1) / n * tail[r - 1]


def counter_identity_errors(w: Workload, n_iter: list[int], n_sel: list[int]) -> list[str]:
    """Per-trial checks: n_iter >= n_sel >= q; nowait observes and reveals
    exactly m; rejection reveals exactly q."""
    q, m = w.q, w.m
    bad = [t for t, (i, s) in enumerate(zip(n_iter, n_sel)) if not i >= s >= q]
    if w.emulator == "nowait":
        bad += [t for t, (i, s) in enumerate(zip(n_iter, n_sel)) if i != m or s != m]
    if w.emulator == "gen":
        bad += [t for t, s in enumerate(n_sel) if s != q]
    return [f"counter identity broken in trial {t}" for t in sorted(set(bad))[:5]]


def csv_mean_errors(w: Workload, text: str, n_iter: list[int], n_sel: list[int],
                    failed: int) -> list[str]:
    """The CSV reports what ran: iter-bench means and failed-trial counts
    match the benchmark's own tally of the trials it timed."""
    if w.trials is None:
        return []
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    errors = []
    reported_failed = {int(r[header.index("failed_trials")]) for r in body
                       if r[header.index("failed_trials")] != ""}
    if reported_failed != {failed}:
        errors.append(f"CSV failed_trials {reported_failed} != counted {failed}")
    if w.subcommand == "iter-bench":
        for metric, samples in (("n_iter", n_iter), ("n_sel", n_sel)):
            row = next(r for r in body if r[0] == metric)
            mean = math.fsum(samples) / len(samples)
            if row[1] != f"{mean:.12g}":
                errors.append(f"CSV mean {metric} {row[1]} != timed trials' {mean:.12g}")
    return errors
