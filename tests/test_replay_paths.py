"""Differential tests of the pool-replay and filter paths.

``CodedPoolAlgorithm.select_next``, ``RejectionEmulator``,
``SecretaryEmulator`` and ``GreedyUtilityPool.select_next`` are written for
speed: one sort over whole elements, a split found by scanning down from the
top, a permutation decoded only up to the entry a round reads, one elements
list whose committed slots are kept across redraws, each redraw replayed in
one loop on a frozen selected set, newest-first domain filters, and key
comparisons that test the score first and read the tie-break only on equal
scores, with no ``(score, tiebreak)`` tuple built per utility call.  Each is
checked here against a reference copy of the plain code it replaced, kept in
this file, on the same seeded inputs: indices, raised errors and whole run
records (counters and round attempts included) must be identical.
"""

import numpy as np
import pytest

import poolstream as ps
from poolstream.cli import base_utility, run_trials
from poolstream.core import _checked_select
from poolstream.secretary import cached_policy
from pool_helpers import BERNOULLI, coarse_utility


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


def reference_greedy_select(alg, elements, history, selected):
    """``GreedyUtilityPool.select_next`` building a (score, tiebreak) key per
    element: the lowest index among equal top elements, an error among
    unequal ones."""
    keys = {idx: (alg.utility(element, history), element.tiebreak)
            for idx, element in enumerate(elements) if idx not in selected}
    best_key = max(keys.values())
    top = [idx for idx, key in keys.items() if key == best_key]
    if len({elements[idx] for idx in top}) > 1:
        raise ps.TieDetected(f"unequal pool elements share the maximal key {best_key}")
    return top[0]


class ReferenceRejection(ps.StreamEmulator):
    """``RejectionEmulator`` rebuilding the replayed elements on every draw."""

    def run(self, source):
        m, q = self.pool_alg.m, self.pool_alg.q
        committed = []
        for i in range(1, q + 1):
            width = m - i + 1
            while True:
                fresh = [source.next() for _ in range(width)]
                if self._replay_accepts(committed, fresh):
                    break
            last = fresh[-1]
            committed.append(source.reveal(last))
        return tuple(committed)

    def _replay_accepts(self, committed, fresh):
        alg = self.pool_alg
        k = len(committed)
        elements = [p.element for p in committed] + fresh
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

    def run(self, source):
        m, q = self.pool_alg.m, self.pool_alg.q
        utility = self.pool_alg.utility
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
                        element = source.next()
                        for hist, cutoff in filters:
                            if (utility(element, hist), element.tiebreak) >= cutoff:
                                break
                        else:
                            break
                    key = (utility(element, snapshot), element.tiebreak)
                    if best_key is None or key > best_key:
                        best_key = key
                        if chosen is None and j >= threshold:
                            chosen = source.reveal(element)
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
    except (ps.InfeasiblePool, ps.TieDetected) as exc:
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

# A secretary mutant that leaves an element in the domain when its key equals
# the cutoff (``>`` for ``>=`` in the tie clause) is equivalent on atomless
# sources: only the accepted element itself has the cutoff's exact key, and a
# continuous tie-break draws it again with probability zero.  The tests below
# cannot catch it, and no test chases it.

def failure_view(failures):
    return [(t, type(e), e.n_iter, e.n_sel, e.revealed) for t, e in failures]


def assert_same_runs(emulator, reference, dist, seed, trials, max_iter=20_000):
    # Both sides run under the same cap and their failures are compared, so
    # the cap hides no difference; it turns a replay that can never accept
    # into failed trials instead of a hang.
    got_failed, want_failed = [], []
    got = list(run_trials(emulator, dist, seed, trials, got_failed, max_iter))
    want = list(run_trials(reference, dist, seed, trials, want_failed, max_iter))
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
    alg = ps.GreedyUtilityPool(utility, m, q)
    records, _ = assert_same_runs(ps.SecretaryEmulator(alg), ReferenceSecretary(alg),
                                  dist, 520, trials)
    assert all(len(r.round_attempts) == q for r in records)


@pytest.mark.parametrize("m,q", [(8, 2), (16, 3)])
def test_secretary_matches_reference_on_every_chain_law(m, q):
    chain = ps.chain_fixture(m, q)
    alg = ps.GreedyUtilityPool(chain.utility, m, q)
    for law, dist in enumerate(chain.dists):
        assert_same_runs(ps.SecretaryEmulator(alg), ReferenceSecretary(alg), dist,
                         530 + law, 150)


# Under the response law 0 no replay reaches the coded pool's final-round
# branch that reads sigma(q) after a revealed 1; the "-ones" cases do, and
# fail a replay that serves a committed pair with a wrong response.
@pytest.mark.parametrize("m,q,trials,response_one", [
    (3, 2, 300, 0.0), (4, 2, 300, 0.0), (5, 3, 40, 0.0), (4, 2, 300, 0.5), (5, 3, 40, 0.5)],
    ids=["3-2-300", "4-2-300", "5-3-40", "4-2-300-ones", "5-3-40-ones"])
def test_rejection_matches_reference_on_coded_pool(m, q, trials, response_one):
    alg = ps.CodedPoolAlgorithm(m, q)
    records, _ = assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                                  ps.two_region_marginal(m, response_one), 540, trials)
    assert all(r.n_sel == q for r in records)
    if response_one:
        assert any(pair.response for r in records for pair in r.output[:-1])


def test_rejection_matches_reference_under_a_cap():
    alg = ps.CodedPoolAlgorithm(5, 3)
    _, failures = assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                                   ps.two_region_marginal(5), 541, 60, max_iter=60)
    assert 0 < len(failures) < 60


def test_rejection_matches_reference_on_greedy_pool():
    alg = ps.GreedyUtilityPool(base_utility, 4, 2)
    assert_same_runs(ps.RejectionEmulator(alg), ReferenceRejection(alg),
                     ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI),
                     542, 300)


# ---------------------------------------------------------------------------
# (d) GreedyUtilityPool.select_next
# ---------------------------------------------------------------------------

def greedy_pools(m, rng):
    """Pools of m elements over three symbols: every tie-break 0.0, as an atom
    source draws them; drawn tie-breaks, so equal scores differ in tie-break;
    and drawn tie-breaks with one element repeated, so two keys are equal."""
    for _ in range(4):
        bases = rng.integers(0, 3, m).astype(float)
        yield [ps.Element(float(b), 0.0) for b in bases]
        pool = [ps.Element(float(b), float(t)) for b, t in zip(bases, rng.random(m))]
        yield pool
        i, j = rng.choice(m, 2, replace=False)
        dup = list(pool)
        dup[j] = dup[i]
        yield dup


def test_greedy_select_matches_reference():
    rng = np.random.default_rng(550)
    mismatches = []
    seen = {"index-tie": 0, "tiebreak-decides": 0, "tie-error": 0, "selected": 0,
            "history-dependent": 0}
    # The first three utilities are injective on bases, so only the coarse
    # one meets unequal elements sharing the top key.
    for utility in (base_utility, flip_on_one, flip_by_length, coarse_utility):
        for m in range(2, 6):
            alg = ps.GreedyUtilityPool(utility, m, m)
            for pool in greedy_pools(m, rng):
                # Walk every history the interaction reaches, branching
                # on both responses of each selected element.
                stack = [((), frozenset())]
                while stack:
                    history, selected = stack.pop()
                    got = outcome(alg.select_next, pool, history, selected)
                    want = outcome(reference_greedy_select, alg, pool, history, selected)
                    if got != want or type(got) is not type(want):
                        mismatches.append((utility.__name__, pool, history, got, want))
                        continue
                    keys = [(utility(e, history), e.tiebreak)
                            for i, e in enumerate(pool) if i not in selected]
                    top = max(keys)
                    seen["index-tie"] += keys.count(top) > 1 and not isinstance(got, tuple)
                    seen["tiebreak-decides"] += len(
                        {tb for score, tb in keys if score == top[0]}) > 1
                    seen["tie-error"] += isinstance(got, tuple)
                    seen["selected"] += bool(selected)
                    seen["history-dependent"] += utility is flip_on_one and any(
                        pair.response == 1 for pair in history)
                    if isinstance(got, tuple) or len(selected) + 1 == m:
                        continue
                    for response in (0, 1):
                        stack.append((history + (ps.LabeledPair(pool[got], response),),
                                      selected | {got}))
    assert not mismatches, mismatches[:3]
    assert all(count > 0 for count in seen.values()), seen
