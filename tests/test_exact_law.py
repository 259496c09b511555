"""Differential tests of the exact-law enumerator.

``exact_pool_distribution`` and ``two_region_exact_distribution`` run one
pool per value multiset.  Each is checked here against a reference copy of
the plain enumerators they replaced, kept in this file: every base tuple
with its product weight for discrete marginals, and every relative order of
the m ranked representatives for a single interval.  Supports must be equal
and masses agree to float rounding.
"""

import itertools
import math
from collections import Counter

import pytest

import poolstream as ps
from poolstream.cli import build_fixture
from poolstream.stats import OutcomeDistribution

TV_TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------

def reference_branch_runs(alg, elements, q, prob_one, sink, weight):
    """Run all response branches of one pool, feeding (history, weight) to sink."""

    def recurse(history, selected, w):
        if len(history) == q:
            sink(history, w)
            return
        idx = alg.select_next(elements, history, frozenset(selected))
        selected.add(idx)
        p1 = prob_one(elements[idx].base)
        for response, pr in ((1, p1), (0, 1.0 - p1)):
            if pr > 0.0:
                history.append(ps.LabeledPair(elements[idx], response))
                recurse(history, selected, w * pr)
                history.pop()
        selected.remove(idx)

    recurse([], set(), weight)


def reference_exact(alg, dist, m, q):
    """Every base tuple (discrete) or every relative order (one interval)."""
    marginal = dist.marginal
    masses = Counter()
    if isinstance(marginal, ps.DiscreteMarginal):
        canonicalizer = ps.DiscreteProjection()

        def sink(history, w):
            masses[canonicalizer(history)] += w

        k = len(marginal.symbols)
        for combo in itertools.product(range(k), repeat=m):
            weight = math.prod(marginal.probs[i] for i in combo)
            if weight == 0.0:
                continue
            elements = [ps.Element(marginal.symbols[i], (pos + 1.0) / (m + 1.0))
                        for pos, i in enumerate(combo)]
            reference_branch_runs(alg, elements, q, dist.prob_one, sink, weight)
        return OutcomeDistribution(dict(masses), canonicalizer)

    lo, hi, _ = marginal.pieces[0]
    reps = [lo + (r + 1.0) / (m + 1.0) * (hi - lo) for r in range(m)]
    canonicalizer = ps.RankPattern()

    def sink(history, w):
        masses[canonicalizer(history)] += w

    p_one = float(dist.response_one)  # a number: the law is base-independent
    base_weight = 1.0 / math.factorial(m)
    for order in itertools.permutations(range(m)):
        elements = [ps.Element(reps[r], 0.0) for r in order]
        reference_branch_runs(alg, elements, q, lambda _b: p_one, sink, base_weight)
    return OutcomeDistribution(dict(masses), canonicalizer)


def reference_two_region(m, q, response_one=0.0):
    """The coded pool's law, one pool per (high count, coded permutation)."""
    alg = ps.CodedPoolAlgorithm(m, q)
    canonicalizer = ps.RankPattern(ps.region_of)
    masses = Counter()

    def sink(history, w):
        masses[canonicalizer(history)] += w

    p_high = 1.0 / m
    for n_high in range(m + 1):
        weight = (math.comb(m, n_high) * p_high ** n_high
                  * (1.0 - p_high) ** (m - n_high))
        n_low = m - n_high
        lows = [ps.Element((r + 1.0) / (n_low + 1.0), 0.0) for r in range(n_low)]
        if n_high == 1:
            share = weight / math.factorial(m - 1)
            for perm in itertools.permutations(range(m - 1)):
                hi = ps.Element(1.0 + ps.unit_from_permutation(perm), 0.0)
                reference_branch_runs(alg, lows + [hi], q,
                                      lambda _b: response_one, sink, share)
        else:
            highs = [ps.Element(1.0 + (r + 1.0) / (n_high + 1.0), 0.0)
                     for r in range(n_high)]
            reference_branch_runs(alg, lows + highs, q,
                                  lambda _b: response_one, sink, weight)
    return OutcomeDistribution(dict(masses), canonicalizer)


def reference_law(fixture):
    m, q = fixture.pool_alg.m, fixture.pool_alg.q
    if fixture.name == "thm3-good-pool":
        return reference_two_region(m, q)
    return reference_exact(fixture.pool_alg, fixture.dist, m, q)


# ---------------------------------------------------------------------------
# Differential checks
# ---------------------------------------------------------------------------

def grid():
    """Every fixture with an exact law, trimmed to about five seconds."""
    for name in ("greedy-max", "greedy-max-discrete", "greedy-max-atoms"):
        for m in range(2, 7):
            for q in range(1, min(m, 4) + 1):
                yield name, m, q, 0
    for m in range(2, 7):
        for q in range(1, m // 2 + 1):  # larger q leaves some pools infeasible
            yield "thm3-good-pool", m, q, 0
    for variant in range(3):
        yield "thm6-chain", 8, 2, variant
    yield "thm6-chain", 9, 2, 2


@pytest.mark.parametrize("name, m, q, variant", list(grid()))
def test_matches_reference_enumerator(name, m, q, variant):
    fixture = build_fixture(name, m, q, variant)
    got = fixture.exact()
    want = reference_law(fixture)
    assert got.projection == want.projection
    assert got.support.keys() == want.support.keys()
    assert ps.tv_distance(got, want) <= TV_TOL


def test_matches_reference_under_random_responses():
    greedy = ps.GreedyUtilityPool(lambda e, h: e.base, 5, 3)
    dist = ps.uniform_interval(response_one=0.3)
    pairs = [(ps.exact_pool_distribution(greedy, dist),
              reference_exact(greedy, dist, 5, 3)),
             (ps.two_region_exact_distribution(5, 2, response_one=0.5),
              reference_two_region(5, 2, response_one=0.5))]
    for got, want in pairs:
        assert got.support.keys() == want.support.keys()
        assert ps.tv_distance(got, want) <= TV_TOL
