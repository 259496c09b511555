"""Distribution equivalence verification and expectation measurement.

The output of a run is reduced to a canonical outcome so that exact and
empirical distributions live on a common finite support:

* discrete bases: the sorted multiset of (base, response) pairs, with
  tie-break coordinates projected out (set-level comparison);
* real bases: the selection-ordered tuple of (region bucket, rank among the
  output elements, response).  Over a continuous source the within-output
  rank pattern is the finite sufficient statistic for order-driven
  algorithms, and keeping selection order makes the comparison strictly
  sharper than the set-level one (the emulators match round by round).

Exact distributions come from brute-force enumeration of small instances;
empirical ones from batches of runs; they are compared by total
variation distance with thresholds set by sampling-noise bounds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Union

from .core import (
    DiscreteMarginal,
    Element,
    EmulationError,
    LabeledPair,
    PoolAlgorithm,
    RunRecord,
    SourceDistribution,
)
from .constructions import CodedPoolAlgorithm, region_of, unit_from_permutation

_ENUM_BUDGET = 10**7


class TooLargeToEnumerate(EmulationError):
    """The joint pool/response space exceeds the exact-enumeration budget."""


class InsufficientSamples(EmulationError):
    """A mean estimate needs at least two samples."""


Outcome = tuple
PairsLike = Union[RunRecord, Sequence[LabeledPair]]


def _pairs_of(run: PairsLike) -> Sequence[LabeledPair]:
    return run.output if isinstance(run, RunRecord) else run


@dataclass(frozen=True)
class DiscreteProjection:
    """Canonical outcome: sorted (base, response) multiset, tiebreaks dropped."""

    label: str = "discrete"

    def __call__(self, run: PairsLike) -> Outcome:
        pairs = _pairs_of(run)
        return tuple(sorted((p.element.base, p.response) for p in pairs))


@dataclass(frozen=True)
class RankPattern:
    """Canonical outcome for real bases: (bucket, within-output rank, response)
    per selection, in selection order.  Ranks count from 1 upward by value."""

    bucket: Callable[[float], int] | None = None
    label: str = "rank"

    def __call__(self, run: PairsLike) -> Outcome:
        pairs = _pairs_of(run)
        order = sorted(range(len(pairs)),
                       key=lambda i: (pairs[i].element.base, pairs[i].element.tiebreak))
        rank = [0] * len(pairs)
        for pos, i in enumerate(order, start=1):
            rank[i] = pos
        bucket = self.bucket
        return tuple(
            ((bucket(p.element.base) if bucket else 0), rank[i], p.response)
            for i, p in enumerate(pairs))


Canonicalizer = Union[DiscreteProjection, RankPattern]


@dataclass
class OutcomeDistribution:
    """Probability mass over canonical outcomes, exact or empirical."""

    support: dict[Outcome, float]
    kind: str  # "exact" | "empirical"
    projection: str
    trials: int | None = None

    def mass(self, outcome: Outcome) -> float:
        return self.support.get(outcome, 0.0)

    def total(self) -> float:
        return sum(self.support.values())


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with a 95% normal-approximation half-width."""

    mean: float
    half_width: float
    trials: int

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    @property
    def lower(self) -> float:
        return self.mean - self.half_width


def mean_ci(samples: Sequence[float]) -> MeanEstimate:
    n = len(samples)
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    mean = math.fsum(samples) / n
    var = math.fsum((s - mean) ** 2 for s in samples) / (n - 1)
    return MeanEstimate(mean, 1.96 * math.sqrt(var / n), n)


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Total variation distance: half the L1 gap over the union support."""
    if p.projection != q.projection:
        raise ValueError(
            f"distributions use different projections: {p.projection!r} vs {q.projection!r}")
    keys = p.support.keys() | q.support.keys()
    return 0.5 * sum(abs(p.mass(k) - q.mass(k)) for k in keys)


def empirical_distribution(runs: Sequence[PairsLike],
                           canonicalizer: Canonicalizer) -> OutcomeDistribution:
    """Canonical outcome frequencies over a batch of runs.

    An empty batch gives an empty support with ``trials=0``.
    """
    n = len(runs)
    counts = Counter(canonicalizer(run) for run in runs)
    return OutcomeDistribution({k: v / n for k, v in counts.items()},
                               "empirical", canonicalizer.label, n)


def _branch_runs(alg: PoolAlgorithm, elements: list[Element], q: int,
                 prob_one: Callable[[float], float],
                 sink: Callable[[list[LabeledPair], float], None],
                 weight: float) -> None:
    """Run all response branches of one pool, feeding (history, weight) to sink."""

    def recurse(history: list[LabeledPair], selected: set[int], w: float) -> None:
        if len(history) == q:
            sink(history, w)
            return
        idx = alg.select_next(elements, history, frozenset(selected))
        selected.add(idx)
        p1 = prob_one(elements[idx].base)
        for response, pr in ((1, p1), (0, 1.0 - p1)):
            if pr > 0.0:
                history.append(LabeledPair(elements[idx], response))
                recurse(history, selected, w * pr)
                history.pop()
        selected.remove(idx)

    recurse([], set(), weight)


def exact_pool_distribution(alg: PoolAlgorithm, dist: SourceDistribution,
                            m: int, q: int) -> OutcomeDistribution:
    """Exact output distribution of a pool algorithm on i.i.d. pools of size m.

    Discrete marginals are enumerated over all base tuples with multinomial
    weights (tie-break coordinates are synthesized per slot; valid whenever
    the algorithm's base-level output does not depend on them, which holds
    for value-driven algorithms).  Single-interval marginals are enumerated
    over the m! relative orders, valid for order-driven algorithms with a
    base-independent response law.
    """
    marginal = dist.marginal
    if isinstance(marginal, DiscreteMarginal):
        k = len(marginal.symbols)
        if (k ** m) * (2 ** m) > _ENUM_BUDGET:
            raise TooLargeToEnumerate(
                f"{k}^{m} pools x 2^{m} responses exceeds the enumeration budget")
        canonicalizer = DiscreteProjection()
        masses: Counter[Outcome] = Counter()

        def sink(history, w):
            masses[canonicalizer(history)] += w

        for combo in itertools.product(range(k), repeat=m):
            weight = math.prod(marginal.probs[i] for i in combo)
            if weight == 0.0:
                continue
            elements = [Element(marginal.symbols[i], (pos + 1.0) / (m + 1.0))
                        for pos, i in enumerate(combo)]
            _branch_runs(alg, elements, q, dist.prob_one, sink, weight)
        return OutcomeDistribution(dict(masses), "exact", canonicalizer.label)

    if len(marginal.pieces) != 1:
        raise TooLargeToEnumerate(
            "multi-piece interval marginals are not purely order-driven; "
            "use a fixture-specific enumerator")
    if dist.constant_response is None:
        raise TooLargeToEnumerate(
            "order-statistics enumeration needs a base-independent response law")
    if m > 7:
        raise TooLargeToEnumerate(f"{m}! orderings exceed the enumeration budget")
    lo, hi, _ = marginal.pieces[0]
    reps = [lo + (r + 1.0) / (m + 1.0) * (hi - lo) for r in range(m)]
    canonicalizer = RankPattern()
    masses = Counter()

    def sink(history, w):
        masses[canonicalizer(history)] += w

    p_one = dist.constant_response
    base_weight = 1.0 / math.factorial(m)
    for order in itertools.permutations(range(m)):
        elements = [Element(reps[r], 0.0) for r in order]
        _branch_runs(alg, elements, q, lambda _b: p_one, sink, base_weight)
    return OutcomeDistribution(dict(masses), "exact", canonicalizer.label)


def two_region_rank_pattern() -> RankPattern:
    """Canonicalizer matching :func:`two_region_exact_distribution`."""
    return RankPattern(bucket=region_of, label="rank/two-region")


def two_region_exact_distribution(m: int, q: int,
                                  response_one: float = 0.0) -> OutcomeDistribution:
    """Exact output distribution of the permutation-coded pool algorithm.

    The algorithm's canonical outcome depends on the pool only through the
    number of high elements and, when exactly one is high, the permutation it
    encodes; both are enumerable (binomial weights times 1/(m-1)! per
    permutation).  The response law must be base-independent.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if not 0.0 <= response_one <= 1.0:
        raise ValueError("response_one must lie in [0, 1]")
    alg = CodedPoolAlgorithm(m, q)
    canonicalizer = two_region_rank_pattern()
    masses: Counter[Outcome] = Counter()

    def sink(history, w):
        masses[canonicalizer(history)] += w

    p_high = 1.0 / m
    for n_high in range(m + 1):
        weight = (math.comb(m, n_high) * p_high ** n_high
                  * (1.0 - p_high) ** (m - n_high))
        n_low = m - n_high
        lows = [Element((r + 1.0) / (n_low + 1.0), 0.0) for r in range(n_low)]
        if n_high == 1:
            share = weight / math.factorial(m - 1)
            for perm in itertools.permutations(range(m - 1)):
                hi = Element(1.0 + unit_from_permutation(perm), 0.0)
                _branch_runs(alg, lows + [hi], q,
                             lambda _b: response_one, sink, share)
        else:
            highs = [Element(1.0 + (r + 1.0) / (n_high + 1.0), 0.0)
                     for r in range(n_high)]
            _branch_runs(alg, lows + highs, q,
                         lambda _b: response_one, sink, weight)
    return OutcomeDistribution(dict(masses), "exact", canonicalizer.label)


def first_q_exact_distribution(q: int, response_one: float = 0.0,
                               label: str = "rank") -> OutcomeDistribution:
    """Exact rank-pattern distribution of the first-q selector on a continuous source.

    The q selected values are i.i.d., so every within-output rank order is
    equally likely and responses are independent coin flips.
    """
    masses: dict[Outcome, float] = {}
    order_mass = 1.0 / math.factorial(q)
    for perm in itertools.permutations(range(1, q + 1)):
        for responses in itertools.product((0, 1), repeat=q):
            w = order_mass * math.prod(
                response_one if r else 1.0 - response_one for r in responses)
            if w > 0.0:
                key = tuple((0, perm[i], responses[i]) for i in range(q))
                masses[key] = masses.get(key, 0.0) + w
    return OutcomeDistribution(masses, "exact", label)
