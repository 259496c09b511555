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
import contextlib
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice
from typing import TYPE_CHECKING, NamedTuple, TextIO

from . import DEFAULT_MAX_ITER
from .secretary import cached_policy, policy_table

if TYPE_CHECKING:
    from .core import Element, PoolAlgorithm, RunRecord, SourceDistribution, StreamEmulator
    from .stats import MeanEstimate, OutcomeDistribution

# Only secretary loads with this module: each command imports the submodules
# it runs, so secretary-table never loads core, constructions, emulators
# or stats.  The trial code reads the names below through this module object
# (``_cli``), bound from the package on first access by ``__getattr__``, so
# that a replacement set on the module reaches every trial.
_LAZY = ("trial_rng", "run_stream", "exact_pool_distribution",
         "two_region_exact_distribution", "tv_distance", "mean_ci")
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_MAX_TABLE_N = 10**5
# Table rows per write: 256 rows of at most 28 characters (7168) stay under
# io.DEFAULT_BUFFER_SIZE, so a batch never outgrows the file buffer.
_TABLE_BATCH = 256


def base_utility(element: Element, history) -> float:
    """History-independent utility: the element's base coordinate."""
    return element.base


class Fixture(NamedTuple):
    """A pool algorithm, its source law, and its exact law (which carries its
    projection).  The pool size and budget are ``pool_alg.m`` and ``pool_alg.q``."""

    name: str
    dist: SourceDistribution
    pool_alg: PoolAlgorithm
    exact: Callable[[], OutcomeDistribution]


_BERNOULLI_LAW = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}

_PLAIN_FIXTURES = ("greedy-max", "greedy-max-discrete", "greedy-max-atoms", "thm3-good-pool")
FIXTURE_NAMES = _PLAIN_FIXTURES + ("thm6-chain", "ex1-hypotheses")
EMULATOR_NAMES = ("wait", "nowait", "gen", "utility-stream", "first-q")


def build_fixture(name: str, m: int, q: int, variant: int = 0) -> Fixture:
    from .constructions import (BitIdentificationPool, CodedPoolAlgorithm, chain_fixture,
                                hypothesis_class, two_region_marginal)
    from .core import uniform_interval, uniform_symbols
    from .emulators import GreedyUtilityPool
    from .stats import TooLargeToEnumerate

    if variant and name in _PLAIN_FIXTURES:
        raise ValueError(f"fixture {name} has no variants, got variant={variant}")
    if name == "thm3-good-pool":
        # Elsewhere some pools hold fewer than q elements in either region,
        # and the coded algorithm has nothing feasible to select.
        if not (q <= (m + 1) // 2 or m == q == 2):
            raise ValueError(f"thm3-good-pool needs q <= ceil(m/2) or m = q = 2, "
                             f"got m={m}, q={q}")
        return Fixture(name, two_region_marginal(m), CodedPoolAlgorithm(m, q),
                       lambda: _cli.two_region_exact_distribution(m, q))
    if name == "ex1-hypotheses":
        # Bit-identification learner over its hypothesis class; ``variant``
        # is the target hypothesis index, which ``source`` checks.  For
        # iter-bench with the wait or nowait emulators (the source has atoms).
        T = max(1, (q - 1).bit_length())  # ceil(log2 q), in integers
        hc = hypothesis_class(q, T, q * (1 << T))

        def no_exact():
            raise TooLargeToEnumerate(
                "ex1-hypotheses has no total exact output distribution: pools "
                "missing the learner's query path abort; use iter-bench")

        return Fixture(name, hc.source(variant), BitIdentificationPool(hc, m), no_exact)
    # The rest run the greedy utility maximiser; exact_pool_distribution enumerates its law.
    utility = base_utility
    if name == "greedy-max":
        dist = uniform_interval(0.0, 1.0)
    elif name == "greedy-max-discrete":
        dist = uniform_symbols(3, atomless=True, response_one=_BERNOULLI_LAW)
    elif name == "greedy-max-atoms":
        dist = uniform_symbols(3, atomless=False, response_one=_BERNOULLI_LAW)
    elif name == "thm6-chain":
        chain = chain_fixture(m, q)
        if not 0 <= variant <= q:
            raise ValueError(f"variant must be in [0, {q}] for thm6-chain")
        dist, utility = chain.dists[variant], chain.utility
    else:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    alg = GreedyUtilityPool(utility, m, q)
    return Fixture(name, dist, alg, lambda: _cli.exact_pool_distribution(alg, dist))


def build_emulator(name: str, fixture: Fixture) -> StreamEmulator:
    from .emulators import (FirstQEmulator, GreedyUtilityPool, NowaitEmulator,
                            RejectionEmulator, SecretaryEmulator, WaitEmulator)

    emulators = {"wait": WaitEmulator, "nowait": NowaitEmulator, "gen": RejectionEmulator,
                 "utility-stream": SecretaryEmulator, "first-q": FirstQEmulator}
    if name not in emulators:
        raise ValueError(f"unknown emulator {name!r}; available: {', '.join(EMULATOR_NAMES)}")
    if name == "utility-stream" and not isinstance(fixture.pool_alg, GreedyUtilityPool):
        raise ValueError(f"fixture {fixture.name!r} exposes no utility function")
    return emulators[name](fixture.pool_alg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):  # a grid, written as its flag takes it
        return ",".join(map(str, value))
    return "" if value is None else str(value)


@contextlib.contextmanager
def _report(out_path: str | None, meta: dict, header: list[str]) -> Iterator[TextIO]:
    """Open ``out_path`` (stdout if None), write the sorted ``# key=value``
    metadata lines and the header, and yield the handle for the rows."""
    with (open(out_path, "w", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        for key in sorted(meta):
            fh.write(f"# {key}={_fmt(meta[key])}\n")
        fh.write(",".join(header) + "\n")
        yield fh


def _emit(out_path: str | None, meta: dict, header: list[str],
          rows: Iterable[Sequence]) -> None:
    """Write a report through the csv writer, which quotes outcome ids, each
    row as it comes; the report is never held whole."""
    import csv

    with _report(out_path, meta, header) as fh:
        csv.writer(fh, lineterminator="\n").writerows([_fmt(v) for v in row] for row in rows)


def run_trials(emulator: StreamEmulator, dist: SourceDistribution,
               seed: int, trials: int, failures: list,
               max_iter: int = DEFAULT_MAX_ITER) -> Iterator[RunRecord]:
    """Yield the records of trials ``0..trials-1``, each run on its seeded
    stream as it is asked for, in trial order.

    Iteration-capped trials and learner runs on pools missing their query
    path yield nothing: ``(trial, error)`` goes to ``failures`` instead, so
    they are reported, never silently dropped.  Read ``failures`` once the
    records are exhausted.
    """
    from .constructions import IncompletePool
    from .core import IterationCapExceeded

    for t in range(trials):
        try:
            record = _cli.run_stream(emulator, dist, _cli.trial_rng(seed, t), max_iter)
        except (IterationCapExceeded, IncompletePool) as exc:
            # Without its traceback the error no longer pins the run's frames.
            failures.append((t, exc.with_traceback(None)))
        else:
            yield record


def cmd_equiv_test(cfg: dict) -> int:
    from .stats import empirical_distribution

    fixture = build_fixture(cfg["fixture"], cfg["m"], cfg["q"], cfg["variant"])
    emulator = build_emulator(cfg["emulator"], fixture)
    exact = fixture.exact()
    failures = []
    empirical = empirical_distribution(
        run_trials(emulator, fixture.dist, cfg["seed"], cfg["trials"], failures,
                   cfg["max_iter"]),
        exact.projection)
    tv = _cli.tv_distance(exact, empirical)
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


def _costs(emulator: str, fixture: Fixture) -> tuple:
    """``(n_iter reference, n_sel reference, n_iter upper bound, per-round attempt
    references, n_iter lower bound: Theorem 6's q·n/8 on the chain)``; None is blank."""
    alg = fixture.pool_alg
    m, q = alg.m, alg.q
    lower = q * alg.utility.n / 8.0 if fixture.name == "thm6-chain" else None
    if emulator == "gen":
        bound = float(m * m) if q <= 1 else m * m * (math.e * m / (q - 1)) ** (q - 1)
        return (bound if q == 1 else None), None, bound, None, lower
    if emulator == "nowait":
        return float(m), float(m), None, None, lower
    if emulator == "utility-stream":
        p_sp = [cached_policy(m - i).p_sp for i in range(q)]
        bound = None if q >= m else (1.0 / p_sp[0]) * math.exp(q / (m - q)) * q * m
        return None, q / p_sp[0], bound, [1.0 / p for p in p_sp], lower
    return None, None, None, None, lower


def expected_costs(m: int, q: int) -> tuple[float, float]:
    """Expected (n_sel, n_iter) of q secretary rounds emulating a size-m pool.

    Round i (horizon h = m-i+1) repeats i.i.d. attempts that succeed with
    p_sp(h); one reveals unless its best key is among the first r_h - 1, so by
    Wald's identity the round reveals (1 - (r_h - 1)/h) / p_sp(h).  An attempt
    observes h in-domain elements, and under a history-independent utility
    E[1/domain mass] = m/h, so the round observes m / p_sp(h) elements.
    """
    n_sel = n_iter = 0.0
    for h in range(m, m - q, -1):
        _, threshold, p_sp = cached_policy(h)
        n_sel += (1.0 - (threshold - 1) / h) / p_sp
        n_iter += m / p_sp
    return n_sel, n_iter


def _status(est: MeanEstimate, bound: float | None, lower: bool = False) -> str:
    """OK or VIOLATION against an upper bound (a lower one if ``lower``);
    blank without a bound.

    Flag only when the CI clears the bound: for the q=1 rejection case the
    "bound" is the exact expectation, so the raw mean exceeds it half the
    time by noise alone.
    """
    if bound is None:
        return ""
    return "OK" if (est.upper >= bound if lower else est.lower <= bound) else "VIOLATION"


def _trial_means(cfg: dict, emulator: str, fixture: Fixture,
                 k: int) -> tuple[list[MeanEstimate], int]:
    """Estimates of the first ``k`` counters (n_iter, n_sel, then each round's attempts)
    of ``fixture``'s trials under the named emulator, and the failed-trial count."""
    columns = [array("q") for _ in range(k)]
    failures = []
    for r in run_trials(build_emulator(emulator, fixture), fixture.dist,
                        cfg["seed"], cfg["trials"], failures, cfg["max_iter"]):
        for column, value in zip(columns, (r.n_iter, r.n_sel, *(r.round_attempts or ()))):
            column.append(value)
    if len(columns[0]) < 2:
        raise ValueError(f"fewer than two uncapped trials at m={fixture.pool_alg.m}")
    return [_cli.mean_ci(column) for column in columns], len(failures)


def cmd_iter_bench(cfg: dict) -> int:
    fixture = build_fixture(cfg["fixture"], cfg["m"], cfg["q"], cfg["variant"])
    iter_ref, sel_ref, iter_bound, round_refs, _ = _costs(cfg["emulator"], fixture)
    series = [("n_iter", iter_ref, iter_bound), ("n_sel", sel_ref, None)]
    series += [(f"round_attempts_{i + 1}", ref, None) for i, ref in enumerate(round_refs or ())]
    estimates, failed = _trial_means(cfg, cfg["emulator"], fixture, len(series))
    rows = [[metric, est.mean, est.half_width, est.trials, failed, reference, bound,
             _status(est, bound)]
            for (metric, reference, bound), est in zip(series, estimates)]
    _emit(cfg["out"], _meta(cfg), ["metric", "mean", "ci_half", "trials",
                                   "failed_trials", "reference", "bound",
                                   "status"], rows)
    return 2 if any(row[-1] == "VIOLATION" for row in rows) else 0


def cmd_secretary_table(cfg: dict) -> int:
    n_max = cfg["n_max"]
    if not 1 <= n_max <= _MAX_TABLE_N:
        raise ValueError(f"n_max must be in [1, {_MAX_TABLE_N}]")
    rows = policy_table(n_max)
    with _report(cfg["out"], _meta(cfg), ["n", "threshold", "p_sp"]) as fh:
        # _fmt's int and float rules in one % format per batch; no cell needs
        # quoting.  policy_table still yields, and perfbench times, one row per next().
        while batch := tuple(chain.from_iterable(islice(rows, _TABLE_BATCH))):
            fh.write("%d,%d,%.12g\n" * (len(batch) // 3) % batch)
    return 0


def cmd_lowerbound_demo(cfg: dict) -> int:
    name = cfg["fixture"]
    if name not in ("thm3-good-pool", "thm6-chain"):
        raise ValueError("lowerbound-demo supports thm3-good-pool and thm6-chain")
    grid = cfg["m_grid"] or [cfg["m"]]
    emulator_name = "gen" if name == "thm3-good-pool" else "utility-stream"
    # Every grid fixture is built before the first trial, so a bad m fails fast.
    fixtures = [build_fixture(name, m, cfg["q"], cfg["variant"]) for m in grid]
    rows = []
    for fixture in fixtures:
        (est,), failed = _trial_means(cfg, emulator_name, fixture, 1)
        *_, bound = _costs(emulator_name, fixture)
        alg = fixture.pool_alg
        n = alg.utility.n if name == "thm6-chain" else None
        rows.append([alg.m, n, est.mean, est.half_width, est.trials, failed,
                     bound, _status(est, bound, lower=True)])
    _emit(cfg["out"], _meta(cfg), ["m", "alphabet_n", "mean_n_iter", "ci_half",
                                   "trials", "failed_trials", "lower_bound",
                                   "status"], rows)
    return 2 if any(row[-1] == "VIOLATION" for row in rows) else 0


_COMMANDS = {
    "equiv-test": cmd_equiv_test,
    "iter-bench": cmd_iter_bench,
    "secretary-table": cmd_secretary_table,
    "lowerbound-demo": cmd_lowerbound_demo,
}


def _int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:  # else the report would name a grid that never ran
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


#: Every option, as ``key: (type, default, help)``.  ``key`` is its config
#: file key and, with dashes for underscores, its flag; ``type`` converts
#: a flag's value and a file's value alike.
_OPTIONS = {
    "seed": (int, 0, "root seed (64-bit)"),
    "trials": (int, 10000, "trials per batch"),
    "m": (int, 4, "pool size"),
    "q": (int, 2, "selection budget"),
    "fixture": (str, "greedy-max", ", ".join(FIXTURE_NAMES)),
    "emulator": (str, "nowait", ", ".join(EMULATOR_NAMES)),
    "max_iter": (int, DEFAULT_MAX_ITER, "cap on the elements one trial observes"),
    "out": (str, None, "output CSV path (default: stdout)"),
    "tv_threshold": (float, 0.02, "largest TV distance equiv-test passes"),
    "n_max": (int, 100, "largest horizon for secretary-table"),
    "m_grid": (_int_list, None, "comma-separated pool sizes for lowerbound-demo"),
    "variant": (int, 0, "thm6-chain response law (0..q), ex1-hypotheses target (0..2^q-1)"),
}


def _meta(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "out" and v is not None}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines ignored.

    Keys are option names (``max-iter`` or ``max_iter``), converted like
    their flags; an unknown key or a value its type rejects is an error
    naming the file, the line and the key.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _OPTIONS[key][0](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                # Only _int_list's refusal says more than int() or float() would.
                why = f" ({exc})" if isinstance(exc, argparse.ArgumentTypeError) else ""
                raise ValueError(f"{path}:{lineno}: bad value {value.strip()!r} "
                                 f"for key {key!r}{why}") from None
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
        for key, (type_, _, help_) in _OPTIONS.items():
            p.add_argument("--" + key.replace("_", "-"), type=type_, help=help_)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in _OPTIONS:
        value = getattr(args, key)
        if value is not None:  # a flag overrides the file
            cfg[key] = value
    cfg["subcommand"] = args.subcommand
    if args.subcommand == "secretary-table":  # reads n_max and out only
        return cfg
    if not 0 <= cfg["seed"] < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if cfg["q"] < 1:  # once, before any fixture is built
        raise ValueError("q must be at least 1")
    if args.subcommand == "equiv-test" and not 0 <= cfg["tv_threshold"] <= 1:  # NaN too
        raise ValueError("tv_threshold must lie in [0, 1]")
    grid = cfg["m_grid"] if args.subcommand == "lowerbound-demo" else None
    for m in grid or [cfg["m"]]:
        if cfg["q"] > m:
            raise ValueError(f"q={cfg['q']} exceeds m={m}")
    if cfg["trials"] < 1:
        raise ValueError("trials must be positive")
    if cfg["max_iter"] < 1:
        raise ValueError("max_iter must be positive")
    return cfg


def _emulation_error() -> type:
    """``core.EmulationError``, imported only when an exception reaches main."""
    from .core import EmulationError
    return EmulationError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError, _emulation_error()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
