"""Experiment runner: reproducible trial batches emitted as CSV.

Subcommands
-----------
equiv-test       exact pool distribution vs. empirical emulator distribution,
                 compared by total variation distance against a threshold.
iter-bench       mean observed/selected-element counts with CIs next to the
                 applicable analytic bound or reference value.
secretary-table  optimal stopping thresholds and success probabilities.
lowerbound-demo  emulation cost across a grid of pool sizes on the
                 adversarial fixtures.

Reports are plain CSV with ``#``-prefixed metadata lines carrying the fully
resolved configuration; identical configurations produce byte-identical
output.  Exit status: 0 on pass/completion, 2 if any row FAILs or VIOLATEs,
1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .core import (
    DEFAULT_MAX_ITER,
    Element,
    EmulationError,
    IterationCapExceeded,
    PoolAlgorithm,
    SourceDistribution,
    StreamEmulator,
    run_stream,
    trial_rng,
    uniform_interval,
    uniform_symbols,
)
from .constructions import (
    BitIdentificationPool,
    CodedPoolAlgorithm,
    IncompletePool,
    chain_fixture,
    hypothesis_class,
    two_region_marginal,
)
from .emulators import (
    FirstQEmulator,
    GreedyUtilityPool,
    NowaitEmulator,
    RejectionEmulator,
    SecretaryEmulator,
    WaitEmulator,
)
from .secretary import cached_policy, policy_table, success_probability
from .stats import (
    Canonicalizer,
    DiscreteProjection,
    OutcomeDistribution,
    RankPattern,
    TooLargeToEnumerate,
    empirical_distribution,
    exact_pool_distribution,
    mean_ci,
    tv_distance,
    two_region_exact_distribution,
    two_region_rank_pattern,
)

_MAX_TABLE_N = 10**5


def base_utility(element: Element, history) -> float:
    """History-independent utility: the element's base coordinate."""
    return element.base


@dataclass
class Fixture:
    """A pool algorithm, its source law, and the matching exact machinery."""

    name: str
    m: int
    q: int
    dist: SourceDistribution
    pool_alg: PoolAlgorithm
    canonicalizer: Canonicalizer
    exact: Callable[[], OutcomeDistribution]
    utility: Callable | None = None


_BERNOULLI_LAW = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}

FIXTURE_NAMES = ("greedy-max", "greedy-max-discrete", "greedy-max-atoms",
                 "thm3-good-pool", "thm6-chain", "ex1-hypotheses")
EMULATOR_NAMES = ("wait", "nowait", "gen", "utility-stream", "first-q")


def build_fixture(name: str, m: int, q: int, variant: int = 0) -> Fixture:
    if name == "greedy-max":
        dist = uniform_interval(0.0, 1.0)
        alg = GreedyUtilityPool(base_utility, m, q)
        return Fixture(name, m, q, dist, alg, RankPattern(),
                       lambda: exact_pool_distribution(alg, dist, m, q),
                       utility=base_utility)
    if name == "greedy-max-discrete":
        dist = uniform_symbols(3, atomless=True, response_one=_BERNOULLI_LAW)
        alg = GreedyUtilityPool(base_utility, m, q)
        return Fixture(name, m, q, dist, alg, DiscreteProjection(),
                       lambda: exact_pool_distribution(alg, dist, m, q),
                       utility=base_utility)
    if name == "greedy-max-atoms":
        dist = uniform_symbols(3, atomless=False, response_one=_BERNOULLI_LAW)
        alg = GreedyUtilityPool(base_utility, m, q, tie_break="index")
        return Fixture(name, m, q, dist, alg, DiscreteProjection(),
                       lambda: exact_pool_distribution(alg, dist, m, q),
                       utility=base_utility)
    if name == "thm3-good-pool":
        dist = two_region_marginal(m)
        alg = CodedPoolAlgorithm(m, q)
        return Fixture(name, m, q, dist, alg, two_region_rank_pattern(),
                       lambda: two_region_exact_distribution(m, q))
    if name == "thm6-chain":
        chain = chain_fixture(m, q)
        if not 0 <= variant <= q:
            raise ValueError(f"variant must be in [0, {q}] for thm6-chain")
        dist = chain.dists[variant]
        alg = GreedyUtilityPool(chain.utility, m, q)
        return Fixture(name, m, q, dist, alg, DiscreteProjection(),
                       lambda: exact_pool_distribution(alg, dist, m, q),
                       utility=chain.utility)
    if name == "ex1-hypotheses":
        # Bit-identification learner over its hypothesis class; ``variant``
        # is the target hypothesis index.  For iter-bench with the wait or
        # nowait emulators (the source has atoms).
        T = max(1, math.ceil(math.log2(q)) if q > 1 else 1)
        hc = hypothesis_class(q, T, q * (1 << T))
        if not 0 <= variant < (1 << q):
            raise ValueError(f"variant must be in [0, {(1 << q) - 1}] for ex1-hypotheses")
        dist = hc.source(variant)

        def no_exact():
            raise TooLargeToEnumerate(
                "ex1-hypotheses has no total exact output distribution: pools "
                "missing the learner's query path abort; use iter-bench")

        return Fixture(name, m, q, dist, BitIdentificationPool(hc, m),
                       DiscreteProjection(), no_exact)
    raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


def build_emulator(name: str, fixture: Fixture) -> StreamEmulator:
    if name == "wait":
        return WaitEmulator(fixture.pool_alg)
    if name == "nowait":
        return NowaitEmulator(fixture.pool_alg)
    if name == "gen":
        return RejectionEmulator(fixture.pool_alg)
    if name == "utility-stream":
        if fixture.utility is None:
            raise ValueError(f"fixture {fixture.name!r} exposes no utility function")
        return SecretaryEmulator(fixture.utility, fixture.m)
    if name == "first-q":
        return FirstQEmulator()
    raise ValueError(f"unknown emulator {name!r}; available: {', '.join(EMULATOR_NAMES)}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _emit(out_path: str | None, meta: dict, header: list[str],
          rows: list[list]) -> None:
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={_fmt(meta[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_trials(emulator: StreamEmulator, dist: SourceDistribution, q: int,
               seed: int, trials: int, max_iter: int = DEFAULT_MAX_ITER) -> tuple:
    """Run trials ``0..trials-1`` on their seeded streams; return (records, failures).

    ``failures`` lists ``(trial, error)`` for iteration-capped trials and for
    learner runs on pools missing their query path; they are reported, never
    silently dropped.
    """
    records = []
    failures = []
    for t in range(trials):
        try:
            records.append(run_stream(emulator, dist, q, trial_rng(seed, t), max_iter))
        except (IterationCapExceeded, IncompletePool) as exc:
            # Without its traceback the error no longer pins the run's frames.
            failures.append((t, exc.with_traceback(None)))
    return records, failures


def cmd_equiv_test(cfg: dict) -> int:
    fixture = build_fixture(cfg["fixture"], cfg["m"], cfg["q"], cfg["variant"])
    emulator = build_emulator(cfg["emulator"], fixture)
    exact = fixture.exact()
    records, failures = run_trials(
        emulator, fixture.dist, cfg["q"], cfg["seed"], cfg["trials"], cfg["max_iter"])
    empirical = empirical_distribution(records, fixture.canonicalizer)
    tv = tv_distance(exact, empirical)
    # Failed trials may be exactly the long runs the empirical side misses,
    # so their share counts against the threshold too.
    failed_share = len(failures) / cfg["trials"]
    status = "PASS" if tv + failed_share <= cfg["tv_threshold"] else "FAIL"
    rows = []
    for outcome in sorted(exact.support.keys() | empirical.support.keys(), key=str):
        rows.append(["outcome", str(outcome), exact.mass(outcome),
                     empirical.mass(outcome), None, None, None, None])
    rows.append(["summary", None, None, None, tv, cfg["tv_threshold"], status,
                 len(failures)])
    _emit(cfg["out"], _meta(cfg), ["row_type", "outcome_id", "exact_mass",
                                   "empirical_mass", "tv", "threshold",
                                   "status", "failed_trials"], rows)
    return 2 if status == "FAIL" else 0


def _gen_iter_bound(m: int, q: int) -> float:
    if q <= 1:
        return float(m * m)
    return m * m * (math.e * m / (q - 1)) ** (q - 1)


def _utility_iter_bound(m: int, q: int) -> float | None:
    if q >= m:
        return None
    p = success_probability(cached_policy(m))
    return (1.0 / p) * math.exp(q / (m - q)) * q * m


def cmd_iter_bench(cfg: dict) -> int:
    fixture = build_fixture(cfg["fixture"], cfg["m"], cfg["q"], cfg["variant"])
    emulator = build_emulator(cfg["emulator"], fixture)
    records, failures = run_trials(
        emulator, fixture.dist, cfg["q"], cfg["seed"], cfg["trials"], cfg["max_iter"])
    if len(records) < 2:
        print("error: fewer than two uncapped trials", file=sys.stderr)
        return 1
    m, q = cfg["m"], cfg["q"]
    name = cfg["emulator"]
    rows = []
    violations = 0

    def add_row(metric, samples, reference=None, bound=None):
        nonlocal violations
        est = mean_ci(samples)
        status = ""
        if bound is not None:
            # Flag only when the CI clears the bound: for the q=1 rejection
            # case the "bound" is the exact expectation, so the raw mean
            # exceeds it half the time by noise alone.
            status = "OK" if est.lower <= bound else "VIOLATION"
            if status == "VIOLATION":
                violations += 1
        rows.append([metric, est.mean, est.half_width, est.trials, len(failures),
                     reference, bound, status])

    iter_bound = None
    iter_ref = None
    sel_ref = None
    if name == "gen":
        iter_bound = _gen_iter_bound(m, q)
        if q == 1:
            iter_ref = float(m * m)
    elif name == "utility-stream":
        iter_bound = _utility_iter_bound(m, q)
        sel_ref = q / success_probability(cached_policy(m))
    elif name == "nowait":
        iter_ref = float(m)
        sel_ref = float(m)
    add_row("n_iter", [float(r.n_iter) for r in records], iter_ref, iter_bound)
    add_row("n_sel", [float(r.n_sel) for r in records], sel_ref)
    if name == "utility-stream":
        for i in range(1, q + 1):
            horizon = m - i + 1
            expected = 1.0 / success_probability(cached_policy(horizon))
            add_row(f"round_attempts_{i}",
                    [float(r.round_attempts[i - 1]) for r in records], expected)
    _emit(cfg["out"], _meta(cfg), ["metric", "mean", "ci_half", "trials",
                                   "failed_trials", "reference", "bound",
                                   "status"], rows)
    return 2 if violations else 0


def cmd_secretary_table(cfg: dict) -> int:
    n_max = cfg["n_max"]
    if not 1 <= n_max <= _MAX_TABLE_N:
        print(f"error: n_max must be in [1, {_MAX_TABLE_N}]", file=sys.stderr)
        return 1
    rows = [[n, threshold, p] for n, threshold, p in policy_table(n_max)]
    _emit(cfg["out"], _meta(cfg), ["n", "threshold", "p_sp"], rows)
    return 0


def cmd_lowerbound_demo(cfg: dict) -> int:
    name = cfg["fixture"]
    if name not in ("thm3-good-pool", "thm6-chain"):
        print("error: lowerbound-demo supports thm3-good-pool and thm6-chain",
              file=sys.stderr)
        return 1
    grid = cfg["m_grid"] or [cfg["m"]]
    q = cfg["q"]
    rows = []
    violations = 0
    for m in grid:
        fixture = build_fixture(name, m, q, cfg["variant"])
        emulator_name = "gen" if name == "thm3-good-pool" else "utility-stream"
        emulator = build_emulator(emulator_name, fixture)
        records, failures = run_trials(
            emulator, fixture.dist, q, cfg["seed"], cfg["trials"], cfg["max_iter"])
        if len(records) < 2:
            print(f"error: fewer than two uncapped trials at m={m}", file=sys.stderr)
            return 1
        est = mean_ci([float(r.n_iter) for r in records])
        if name == "thm6-chain":
            n = chain_fixture(m, q).n
            bound = q * n / 8.0
            # As in iter-bench, flag only when the CI clears the bound.
            status = "OK" if est.upper >= bound else "VIOLATION"
            if status == "VIOLATION":
                violations += 1
        else:
            n, bound, status = None, None, ""
        rows.append([m, n, est.mean, est.half_width, est.trials, len(failures),
                     bound, status])
    _emit(cfg["out"], _meta(cfg), ["m", "alphabet_n", "mean_n_iter", "ci_half",
                                   "trials", "failed_trials", "lower_bound",
                                   "status"], rows)
    return 2 if violations else 0


_COMMANDS = {
    "equiv-test": cmd_equiv_test,
    "iter-bench": cmd_iter_bench,
    "secretary-table": cmd_secretary_table,
    "lowerbound-demo": cmd_lowerbound_demo,
}

_INT_KEYS = ("m", "q", "trials", "seed", "max_iter", "n_max", "variant")


def _meta(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "out" and v is not None}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="poolstream", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="root seed (64-bit)")
        p.add_argument("--trials", type=int)
        p.add_argument("--m", type=int, help="pool size")
        p.add_argument("--q", type=int, help="selection budget")
        p.add_argument("--fixture", help=", ".join(FIXTURE_NAMES))
        p.add_argument("--emulator", help=", ".join(EMULATOR_NAMES))
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--tv-threshold", type=float, dest="tv_threshold")
        p.add_argument("--n-max", type=int, dest="n_max",
                       help="largest horizon for secretary-table")
        p.add_argument("--m-grid", dest="m_grid",
                       help="comma-separated pool sizes for lowerbound-demo")
        p.add_argument("--variant", type=int,
                       help="response-law index for thm6-chain (0..q)")
    return parser


_DEFAULTS = {
    "fixture": "greedy-max",
    "emulator": "nowait",
    "m": 4,
    "q": 2,
    "trials": 10000,
    "seed": 0,
    "max_iter": DEFAULT_MAX_ITER,
    "tv_threshold": 0.02,
    "n_max": 100,
    "variant": 0,
    "m_grid": None,
    "out": None,
}


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key in _INT_KEYS:
        cfg[key] = int(cfg[key])
    cfg["tv_threshold"] = float(cfg["tv_threshold"])
    if isinstance(cfg["m_grid"], str):
        cfg["m_grid"] = [int(x) for x in cfg["m_grid"].split(",") if x.strip()]
    cfg["subcommand"] = args.subcommand
    if not 0 <= cfg["seed"] < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if cfg["q"] > cfg["m"]:
        raise ValueError(f"q={cfg['q']} exceeds m={cfg['m']}")
    if cfg["trials"] < 1:
        raise ValueError("trials must be positive")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError, EmulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
