"""Distribution equivalence verification and expectation measurement.

The output of a run is its transcript, the q (element, response) pairs in
selection order; an emulator is equivalent to a pool algorithm when its
transcripts have the pool's law.  A transcript is reduced to a canonical
outcome so that exact and empirical distributions live on a common finite
support:

* discrete bases: the sorted multiset of (base, response) pairs, with
  tie-break coordinates projected out.  It compares output sets only, so a
  right set selected in the wrong order passes it;
* real bases: the selection-ordered tuple of (region bucket, rank among the
  output elements, response).  Over a continuous source the within-output
  rank pattern is the finite sufficient statistic for order-driven
  algorithms, and it compares transcripts round by round.

Exact distributions enumerate one pool per value multiset (valid under the
``PoolAlgorithm`` permutation-invariance contract); empirical ones come from
batches of runs; they are compared by total variation distance against one
fixed threshold, ``equiv-test``'s ``--tv-threshold`` (0.02 by default).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple, Union

from .core import (
    DiscreteMarginal,
    Element,
    EmulationError,
    LabeledPair,
    PoolAlgorithm,
    RunRecord,
    SourceDistribution,
    _checked_select,
)
from .constructions import region_of, unit_from_permutation

_ENUM_BUDGET = 10**7


class TooLargeToEnumerate(EmulationError):
    """The joint pool/response space exceeds the exact-enumeration budget."""


class InsufficientSamples(EmulationError):
    """A mean estimate needs at least two samples."""


Outcome = tuple
PairsLike = Union[RunRecord, Sequence[LabeledPair]]


def _pairs_of(run: PairsLike) -> Sequence[LabeledPair]:
    return run.output if isinstance(run, RunRecord) else run


class DiscreteProjection(NamedTuple):
    """Canonical outcome: sorted (base, response) multiset, tiebreaks dropped."""

    def __call__(self, run: PairsLike) -> Outcome:
        pairs = _pairs_of(run)
        return tuple(sorted((p.element.base, p.response) for p in pairs))


class RankPattern(NamedTuple):
    """Canonical outcome for real bases: (bucket, within-output rank, response)
    per selection, in selection order.  Ranks count from 1 upward by value."""

    bucket: Callable[[float], int] | None = None

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


class OutcomeDistribution(NamedTuple):
    """Probability mass over canonical outcomes, exact or empirical, and the
    canonicalizer that projected them: the exact law picks it, an empirical
    batch reuses it, and :func:`tv_distance` compares only equal ones."""

    support: dict[Outcome, float]
    projection: Canonicalizer
    trials: int | None = None

    def mass(self, outcome: Outcome) -> float:
        return self.support.get(outcome, 0.0)

    def total(self) -> float:
        return sum(self.support.values())


class MeanEstimate(NamedTuple):
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


def empirical_distribution(runs: Iterable[PairsLike],
                           canonicalizer: Canonicalizer) -> OutcomeDistribution:
    """Canonical outcome frequencies over a batch of runs, counted as the
    runs arrive: any iterable serves, a generator of trials included.

    An empty batch gives an empty support with ``trials=0``.
    """
    counts = Counter(map(canonicalizer, runs))
    n = counts.total()
    return OutcomeDistribution({k: v / n for k, v in counts.items()},
                               canonicalizer, n)


def _exact_law(alg: PoolAlgorithm, pools: Iterable[tuple[list[Element], float]],
               prob_one: Callable[[float], float],
               canonicalizer: Canonicalizer) -> OutcomeDistribution:
    """Exact canonical-outcome law over weighted pools.

    Each pool is run for ``alg.q`` rounds through every response branch: a
    selection reveals 1 with probability ``prob_one(base)`` and 0 otherwise.
    Selections go through the same index check as
    :func:`~poolstream.core.interact_pool`.
    """
    q = alg.q
    masses: Counter[Outcome] = Counter()
    history: list[LabeledPair] = []

    def recurse(elements: list[Element], w: float, selected: frozenset[int]) -> None:
        if len(history) == q:
            masses[canonicalizer(history)] += w
            return
        idx = _checked_select(alg, elements, history, selected)
        selected |= {idx}
        p1 = prob_one(elements[idx].base)
        for response, pr in ((1, p1), (0, 1.0 - p1)):
            if pr > 0.0:
                history.append(LabeledPair(elements[idx], response))
                recurse(elements, w * pr, selected)
                history.pop()

    for elements, weight in pools:
        recurse(elements, weight, frozenset())
    return OutcomeDistribution(dict(masses), canonicalizer)


def _multiset_pools(marginal: DiscreteMarginal,
                    m: int) -> Iterator[tuple[list[Element], float]]:
    """One pool per multiset of m symbols, weighted by its multinomial mass."""
    m_factorial = math.factorial(m)
    for combo in itertools.combinations_with_replacement(range(len(marginal.symbols)), m):
        arrangements = m_factorial // math.prod(
            math.factorial(len(list(run))) for _, run in itertools.groupby(combo))
        weight = arrangements * math.prod(marginal.probs[i] for i in combo)
        if weight > 0.0:
            yield [Element(marginal.symbols[i], 0.0) for i in combo], weight


def exact_pool_distribution(alg: PoolAlgorithm,
                            dist: SourceDistribution) -> OutcomeDistribution:
    """Exact output distribution of a pool algorithm on i.i.d. pools of its
    size ``alg.m``, for its budget ``alg.q``.

    By the :class:`~poolstream.core.PoolAlgorithm` contract (permutation
    invariance at the value level) one ordering per value multiset carries
    the multiset's whole mass.  Discrete marginals are enumerated over symbol
    multisets with multinomial weights, every tie-break 0.0: where a tie-break
    would decide between bases, the greedy pool raises
    :class:`~poolstream.core.TieDetected`.
    A single-interval marginal is one pool of m ranked representatives, valid
    for order-driven algorithms with a base-independent response law.
    """
    m, q = alg.m, alg.q
    marginal = dist.marginal
    if isinstance(marginal, DiscreteMarginal):
        k = len(marginal.symbols)
        if math.comb(m + k - 1, k - 1) * 2 ** q > _ENUM_BUDGET:
            raise TooLargeToEnumerate(
                f"C({m + k - 1}, {k - 1}) multisets x 2^{q} responses "
                "exceeds the enumeration budget")
        return _exact_law(alg, _multiset_pools(marginal, m), dist.prob_one,
                          DiscreteProjection())

    if len(marginal.pieces) != 1:
        raise TooLargeToEnumerate(
            "multi-piece interval marginals are not purely order-driven; the "
            "coded pool's law is two_region_exact_distribution(alg, dist)")
    if isinstance(dist.response_one, Mapping):
        raise TooLargeToEnumerate(
            "order-statistics enumeration needs a base-independent response law")
    if 2 ** q > _ENUM_BUDGET:
        raise TooLargeToEnumerate(f"2^{q} responses exceed the enumeration budget")
    lo, hi, _ = marginal.pieces[0]
    reps = [Element(lo + (r + 1.0) / (m + 1.0) * (hi - lo), 0.0) for r in range(m)]
    return _exact_law(alg, [(reps, 1.0)], dist.prob_one, RankPattern())


def two_region_exact_distribution(alg: PoolAlgorithm,
                                  dist: SourceDistribution) -> OutcomeDistribution:
    """Exact output distribution of the permutation-coded pool ``alg`` on ``dist``.

    The algorithm's canonical outcome depends on the pool only through the
    number of high elements and, when exactly one is high, the permutation it
    encodes; both are enumerable (binomial weights times 1/(m-1)! per
    permutation).  ``dist`` needs pieces [0, 1] and (1, 2] and a number as its law.
    """
    m, q = alg.m, alg.q
    if [p[:2] for p in getattr(dist.marginal, "pieces", ())] != [(0.0, 1.0), (1.0, 2.0)]:
        raise ValueError("the coded pool's law needs interval pieces [0, 1] and (1, 2]")
    if isinstance(dist.response_one, Mapping):
        raise TooLargeToEnumerate(
            "order-statistics enumeration needs a base-independent response law")
    (_, _, p_low), (_, _, p_high) = dist.marginal.pieces
    # (m-1)! * 2^q in logs, so that a huge m is refused at once.
    if math.lgamma(m) + q * math.log(2) > math.log(_ENUM_BUDGET):
        raise TooLargeToEnumerate(
            f"{m - 1}! coded pools x 2^{q} responses exceeds the enumeration budget")

    def pools() -> Iterator[tuple[list[Element], float]]:
        for n_high in range(m + 1):
            weight = math.comb(m, n_high) * p_high ** n_high * p_low ** (m - n_high)
            n_low = m - n_high
            lows = [Element((r + 1.0) / (n_low + 1.0), 0.0) for r in range(n_low)]
            if n_high == 1:
                share = weight / math.factorial(m - 1)
                for perm in itertools.permutations(range(m - 1)):
                    yield lows + [Element(1.0 + unit_from_permutation(perm), 0.0)], share
            else:
                yield lows + [Element(1.0 + (r + 1.0) / (n_high + 1.0), 0.0)
                              for r in range(n_high)], weight

    return _exact_law(alg, pools(), dist.prob_one, RankPattern(region_of))
