"""Differential tests of the pool-replay and filter paths.

``CodedPoolAlgorithm.select_next``, ``RejectionEmulator`` and
``SecretaryEmulator`` are written for speed: one sort over whole elements,
a committed-elements list kept across redraws, and newest-first domain
filters.  Each is checked here against a reference copy of the plain code it
replaced, kept in this file, on the same seeded inputs: indices, raised
errors and whole run records (counters and round attempts included) must be
identical.
"""

import numpy as np
import pytest

import poolstream as ps
from poolstream.cli import base_utility, run_trials
from poolstream.core import _checked_select
from poolstream.secretary import cached_policy

BERNOULLI = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}


# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------

def reference_coded_select(alg, elements, history, selected):
    """``CodedPoolAlgorithm.select_next`` as two region sorts with lambdas."""
    q = alg.q
    low = sorted((i for i, e in enumerate(elements) if e.base <= 1.0),
                 key=lambda i: (elements[i].base, elements[i].tiebreak))
    high = sorted((i for i, e in enumerate(elements) if e.base > 1.0),
                  key=lambda i: (elements[i].base, elements[i].tiebreak))
    if len(high) == 1:
        hi = high[0]
        sigma = ps.permutation_from_unit(elements[hi].base - 1.0, len(low))
        t = len(history) + 1
        if t < q:
            return low[sigma[t - 1]]
        if all(pair.response == 0 for pair in history):
            return hi
        if q <= len(low):
            return low[sigma[q - 1]]
        return hi
    feasible = low if len(low) >= q else high
    if len(feasible) < q:
        raise ps.InfeasiblePool(
            f"neither region holds q={q} elements "
            f"(low={len(low)}, high={len(high)})")
    for idx in feasible:
        if idx not in selected:
            return idx
    raise ps.InfeasiblePool("no unselected element left in the feasible region")


class ReferenceRejection(ps.StreamEmulator):
    """``RejectionEmulator`` rebuilding the replayed elements on every draw."""

    def __init__(self, pool_alg):
        self.pool_alg = pool_alg

    def run(self, source, q):
        m = self.pool_alg.m
        committed = []
        for i in range(1, q + 1):
            width = m - i + 1
            while True:
                fresh = [source.next() for _ in range(width)]
                if self._replay_accepts(committed, fresh):
                    break
            last = fresh[-1]
            committed.append(ps.LabeledPair(last.element, source.reveal(last)))
        return tuple(committed)

    def _replay_accepts(self, committed, fresh):
        alg = self.pool_alg
        k = len(committed)
        elements = [p.element for p in committed] + [p.element for p in fresh]
        history = []
        selected = set()
        for _ in range(k):
            idx = _checked_select(alg, elements, history, selected)
            if idx >= k:
                return False
            selected.add(idx)
            history.append(committed[idx])
        idx = _checked_select(alg, elements, history, selected)
        return idx == len(elements) - 1


class ReferenceSecretary(ps.StreamEmulator):
    """``SecretaryEmulator`` testing the domain filters oldest first."""

    def __init__(self, utility, m):
        self.utility = utility
        self.m = m

    def run(self, source, q):
        m = self.m
        utility = self.utility
        accepted = []
        filters = []
        attempts_log = []
        for i in range(1, q + 1):
            horizon = m - i + 1
            threshold = cached_policy(horizon).threshold
            snapshot = tuple(accepted)
            attempts = 0
            while True:
                attempts += 1
                best_key = None
                chosen = None
                chosen_key = None
                for j in range(1, horizon + 1):
                    while True:
                        item = source.next()
                        element = item.element
                        for hist, cutoff in filters:
                            if (utility(element, hist), element.tiebreak) >= cutoff:
                                break
                        else:
                            break
                    key = (utility(element, snapshot), element.tiebreak)
                    if best_key is None or key > best_key:
                        best_key = key
                        if chosen is None and j >= threshold:
                            chosen = ps.LabeledPair(element, source.reveal(item))
                            chosen_key = key
                if chosen is not None and chosen_key == best_key:
                    break
            attempts_log.append(attempts)
            filters.append((snapshot, chosen_key))
            accepted.append(chosen)
        source.round_attempts = tuple(attempts_log)
        return tuple(accepted)


# ---------------------------------------------------------------------------
# (a) CodedPoolAlgorithm.select_next
# ---------------------------------------------------------------------------

def coded_pools(m, rng):
    """Pools of m elements with every number of high elements, plus edge
    variants: a low at base exactly 1.0 and a duplicated element."""
    for n_high in range(m + 1):
        for _ in range(3):
            bases = rng.random(m)
            bases[:n_high] += 1.0
            tiebreaks = rng.random(m)
            perm = rng.permutation(m)
            pool = [ps.Element(float(bases[i]), float(tiebreaks[i])) for i in perm]
            yield pool
            if n_high < m:
                at_one = list(pool)
                j = next(i for i, e in enumerate(pool) if e.base <= 1.0)
                at_one[j] = ps.Element(1.0, at_one[j].tiebreak)
                yield at_one
            if m >= 3:
                dup = list(pool)
                dup[-1] = dup[0]
                yield dup


def outcome(select, *args):
    try:
        return select(*args)
    except ps.InfeasiblePool as exc:
        return (type(exc), str(exc))


def test_coded_select_matches_reference():
    rng = np.random.default_rng(510)
    mismatches = []
    seen = {"no-high": 0, "one-high": 0, "many-high": 0, "infeasible": 0, "at-one": 0}
    for m in range(2, 7):
        for q in range(1, m + 1):
            alg = ps.CodedPoolAlgorithm(m, q)
            for pool in coded_pools(m, rng):
                n_high = sum(e.base > 1.0 for e in pool)
                kind = ("no-high", "one-high")[n_high] if n_high < 2 else "many-high"
                # Walk every history the interaction reaches, branching on
                # both responses of each selected element.
                stack = [((), frozenset())]
                while stack:
                    history, selected = stack.pop()
                    got = outcome(alg.select_next, pool, history, selected)
                    want = outcome(reference_coded_select, alg, pool, history, selected)
                    seen[kind] += 1
                    seen["at-one"] += any(e.base == 1.0 for e in pool)
                    if got != want or type(got) is not type(want):
                        mismatches.append((m, q, pool, history, got, want))
                        continue
                    if isinstance(got, tuple):
                        seen["infeasible"] += 1
                        continue
                    if len(history) + 1 == q or got in selected:
                        continue
                    for response in (0, 1):
                        stack.append((history + (ps.LabeledPair(pool[got], response),),
                                      selected | {got}))
    assert not mismatches, mismatches[:3]
    assert all(count > 0 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# (b) SecretaryEmulator and (c) RejectionEmulator run records
# ---------------------------------------------------------------------------

def failure_view(failures):
    return [(t, type(e), e.n_iter, e.n_sel, e.revealed) for t, e in failures]


def assert_same_runs(emulator, reference, dist, q, seed, trials, max_iter=20_000):
    # Both sides run under the same cap and their failures are compared, so
    # the cap hides no difference; it turns a replay that can never accept
    # into failed trials instead of a hang.
    got, got_failed = run_trials(emulator, dist, q, seed, trials, max_iter)
    want, want_failed = run_trials(reference, dist, q, seed, trials, max_iter)
    assert len(got) == len(want)
    bad = [t for t, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, (bad[:5], got[bad[0]], want[bad[0]])
    assert failure_view(got_failed) == failure_view(want_failed)
    return got, got_failed


def flip_by_length(element, history):
    """Ranks bases up on even history lengths and down on odd ones."""
    return element.base if len(history) % 2 == 0 else -element.base


def flip_on_one(element, history):
    """Prefers small bases once a response 1 has been revealed."""
    if any(pair.response == 1 for pair in history):
        return -element.base
    return element.base


SECRETARY_CASES = [
    ("base-interval", base_utility, ps.uniform_interval(), 10, 5, 200),
    ("base-discrete", base_utility,
     ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI), 4, 3, 300),
    ("flip-length", flip_by_length, ps.uniform_interval(), 6, 4, 300),
    ("flip-length-discrete", flip_by_length,
     ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI), 5, 4, 300),
    ("flip-on-one", flip_on_one,
     ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI), 5, 3, 300),
]


@pytest.mark.parametrize("name,utility,dist,m,q,trials", SECRETARY_CASES,
                         ids=[c[0] for c in SECRETARY_CASES])
def test_secretary_matches_reference(name, utility, dist, m, q, trials):
    records, _ = assert_same_runs(ps.SecretaryEmulator(utility, m),
                                  ReferenceSecretary(utility, m), dist, q, 520, trials)
    assert all(len(r.round_attempts) == q for r in records)


@pytest.mark.parametrize("m,q", [(8, 2), (16, 3)])
def test_secretary_matches_reference_on_every_chain_law(m, q):
    chain = ps.chain_fixture(m, q)
    for law, dist in enumerate(chain.dists):
        assert_same_runs(ps.SecretaryEmulator(chain.utility, m),
                         ReferenceSecretary(chain.utility, m), dist, q, 530 + law, 150)


@pytest.mark.parametrize("m,q,trials", [(3, 2, 300), (4, 2, 300), (5, 3, 40)])
def test_rejection_matches_reference_on_coded_pool(m, q, trials):
    alg = ps.CodedPoolAlgorithm(m, q)
    records, _ = assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                                  ps.two_region_marginal(m), q, 540, trials)
    assert all(r.n_sel == q for r in records)


def test_rejection_matches_reference_under_a_cap():
    alg = ps.CodedPoolAlgorithm(5, 3)
    _, failures = assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                                   ps.two_region_marginal(5), 3, 541, 60, max_iter=60)
    assert 0 < len(failures) < 60


def test_rejection_matches_reference_on_greedy_pool():
    alg = ps.GreedyUtilityPool(base_utility, 4, 2)
    assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                     ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI),
                     2, 542, 300)
