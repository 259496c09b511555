"""Pool-side references that only the tests use: running a pool algorithm
on a sealed pool, drawing pools, exact laws of small cases, the secretary
stopping rule, and the greedy pool, response law and trial batch that
several test modules share, with a coarse utility that ties unequal bases."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from poolstream.cli import run_trials
from poolstream.constructions import (
    BitIdentificationPool,
    ChainFixture,
    HypothesisClass,
    InvalidShape,
)
from poolstream.core import (
    DiscreteMarginal,
    Element,
    History,
    LabeledPair,
    PoolAlgorithm,
    ResponseLawLike,
    RunRecord,
    SourceDistribution,
    StreamSource,
    interact_pool,
)
from poolstream.emulators import GreedyUtilityPool
from poolstream.secretary import InvalidHorizon, SecretaryPolicy
from poolstream.stats import OutcomeDistribution, RankPattern

#: P(response 1) per symbol of the three-symbol response fixtures.
BERNOULLI = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}


def greedy(m, q):
    """Greedy pool on the element's base value."""
    return GreedyUtilityPool(lambda e, h: e.base, m, q)


def coarse_utility(element, history):
    """Scores bases 1.0 and 2.0 alike, so a greedy pool on it meets unequal ties."""
    return float(element.base >= 1.0)


def batch(emulator, dist, seed, trials):
    """The records of ``trials`` seeded trials; fails the test if any trial failed."""
    failures = []
    records = list(run_trials(emulator, dist, seed, trials, failures))
    assert not failures
    return records


def point_mass(symbol: float, *, response_one: ResponseLawLike = 0.0) -> SourceDistribution:
    """Degenerate marginal on one symbol (useful for recurrence tests)."""
    return SourceDistribution(DiscreteMarginal((float(symbol),), (1.0,)),
                              response_one, atomless=False)


def sample_pool(dist: SourceDistribution, m: int, rng) -> list[LabeledPair]:
    """Draw an i.i.d. pool of ``m`` pairs through a private :class:`StreamSource`."""
    source = StreamSource(dist, rng)
    return [source.reveal(source.next()) for _ in range(m)]


def run_pool(alg: PoolAlgorithm, pool: Sequence[LabeledPair]) -> RunRecord:
    """Execute a pool algorithm on a sealed pool of its size ``alg.m``.

    The pool algorithm observes every element, so ``n_iter`` equals the pool
    size and ``n_sel`` equals the budget ``alg.q``.
    """
    m = len(pool)
    if alg.m != m:
        raise ValueError(f"pool algorithm expects m={alg.m}, got pool of size {m}")
    return RunRecord(tuple(interact_pool(alg, [p.element for p in pool],
                                         pool.__getitem__)), alg.q, m, None)


def complete_pool(hclass: HypothesisClass, target: int) -> list[LabeledPair]:
    """One sealed pair per domain element, labeled by hypothesis ``target``."""
    return [LabeledPair(Element(float(s), 0.0), hclass.evaluate(target, float(s)))
            for s in range(hclass.n)]


def expected_output(fixture: ChainFixture, t: int) -> frozenset[int]:
    """The symbol set the greedy pool algorithm must select under
    ``fixture.dists[t]`` on any pool containing symbols 1..2q-1."""
    if not 0 <= t <= fixture.q:
        raise ValueError(f"t={t} outside [0, {fixture.q}]")
    if t == 0:
        return frozenset(range(1, fixture.q + 1))
    return frozenset(range(1, t + 1)) | frozenset(range(fixture.q + t, 2 * fixture.q))


def identify_bits(hclass: HypothesisClass, history: History) -> int:
    """Decode the target hypothesis index from a full learner history."""
    index = 0
    for t, pair in enumerate(history, start=1):
        bit = 0 if pair.response == 1 else 1
        index |= bit << (t - 1)
    return index


def pool_bit_learner(hclass: HypothesisClass, pool: Sequence[LabeledPair],
                     q: int) -> tuple[int, RunRecord]:
    """Run the bit-identification learner on a pool; return (index, record).

    The pool must contain every element the query path needs (a pool holding
    all of the domain always suffices); otherwise ``IncompletePool`` is
    raised, which corresponds to the learner's failure event.
    """
    if q != hclass.q:
        raise InvalidShape(f"learner identifies exactly q={hclass.q} bits, got q={q}")
    record = run_pool(BitIdentificationPool(hclass, len(pool)), pool)
    return identify_bits(hclass, record.output), record


def success_probability_exact(policy: SecretaryPolicy) -> Fraction:
    """phi(threshold) as an exact rational (intended for modest horizons)."""
    n, r = policy.n, policy.threshold
    if n < 1 or not 1 <= r <= n:
        raise InvalidHorizon(f"invalid policy {policy}")
    if r == 1:
        return Fraction(1, n)
    tail = sum((Fraction(1, j - 1) for j in range(r, n + 1)), Fraction(0))
    return Fraction(r - 1, n) * tail


class DuplicateScore(ValueError):
    """The no-ties assumption was violated by an observed score sequence."""


def secpr(policy: SecretaryPolicy, prefix_scores: Sequence) -> bool:
    """Does the optimal policy select the last score of this prefix?

    True iff the prefix length k is at least the threshold, the final score is
    a running maximum, and the policy had not already stopped at an earlier
    running maximum past the observation phase.  Scores may be any mutually
    comparable keys; equal scores violate the no-ties assumption.
    """
    k = len(prefix_scores)
    if not 1 <= k <= policy.n:
        raise InvalidHorizon(f"prefix length {k} outside [1, {policy.n}]")
    if len(set(prefix_scores)) != k:
        raise DuplicateScore("tied scores in secretary prefix")
    r = policy.threshold
    if k < r:
        return False
    best = None
    for j, score in enumerate(prefix_scores, start=1):
        is_record = best is None or score > best
        if is_record:
            best = score
            if j >= r:
                return j == k
    return False


def first_q_exact_distribution(q: int) -> OutcomeDistribution:
    """Exact rank-pattern distribution of the first-q selector on a continuous
    source whose responses are all 0.

    The q selected values are i.i.d., so every within-output rank order is
    equally likely.
    """
    order_mass = 1.0 / math.factorial(q)
    return OutcomeDistribution(
        {tuple((0, rank, 0) for rank in perm): order_mass
         for perm in itertools.permutations(range(1, q + 1))}, RankPattern())
