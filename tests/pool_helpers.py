"""Pool-side references that only the tests use: running a pool algorithm
on a sealed pool, drawing pools, exact laws of small cases, and the greedy
pool, response law and trial batch that several test modules share."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from poolstream.cli import run_trials
from poolstream.constructions import BitIdentificationPool, HypothesisClass, InvalidShape
from poolstream.core import (
    DiscreteMarginal,
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
from poolstream.secretary import SecretaryPolicy, _validate_policy
from poolstream.stats import OutcomeDistribution, RankPattern

#: P(response 1) per symbol of the three-symbol response fixtures.
BERNOULLI = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}


def greedy(m, q, **kw):
    """Greedy pool on the element's base value."""
    return GreedyUtilityPool(lambda e, h: e.base, m, q, **kw)


def batch(emulator, dist, q, seed, trials):
    """The records of ``trials`` seeded trials; fails the test if any trial failed."""
    failures = []
    records = list(run_trials(emulator, dist, q, seed, trials, failures))
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


def run_pool(alg: PoolAlgorithm, pool: Sequence[LabeledPair], q: int) -> RunRecord:
    """Execute a pool algorithm on a sealed pool.

    The pool algorithm observes every element, so ``n_iter`` equals the pool
    size and ``n_sel`` equals the budget.
    """
    m = len(pool)
    if q > m:
        raise ValueError(f"budget q={q} exceeds pool size m={m}")
    if getattr(alg, "m", m) != m:
        raise ValueError(f"pool algorithm expects m={alg.m}, got pool of size {m}")
    return RunRecord(tuple(interact_pool(alg, [p.element for p in pool], q,
                                         pool.__getitem__)), q, m, None)


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
    record = run_pool(BitIdentificationPool(hclass, len(pool)), pool, q)
    return identify_bits(hclass, record.output), record


def success_probability_exact(policy: SecretaryPolicy) -> Fraction:
    """phi(threshold) as an exact rational (intended for modest horizons)."""
    n, r = policy.n, policy.threshold
    _validate_policy(policy)
    if r == 1:
        return Fraction(1, n)
    tail = sum((Fraction(1, j - 1) for j in range(r, n + 1)), Fraction(0))
    return Fraction(r - 1, n) * tail


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
