"""Emulator behavior: counters, waits, rejection accounting, secretary rounds."""

import itertools

import numpy as np
import pytest

import poolstream as ps
from poolstream.cli import run_trials

BERNOULLI = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}


def greedy(m, q, **kw):
    return ps.GreedyUtilityPool(lambda e, h: e.base, m, q, **kw)


def batch(emulator, dist, q, seed, trials):
    records, failures = run_trials(emulator, dist, q, seed, trials)
    assert not failures
    return records


class FakeSource:
    """Deterministic stand-in for StreamSource with a scripted pair sequence.

    Hands out each pair's element and, like StreamSource, reveals the
    scripted response of the element just observed and of no other.
    """

    def __init__(self, pairs, atomless=True):
        self._items = list(pairs)
        self.dist = ps.uniform_interval() if atomless else ps.uniform_symbols(2)
        self.n_iter = 0
        self.n_sel = 0
        self.round_attempts = None
        self.reveal_positions = []
        self._last = None

    def next(self):
        self._last = item = self._items[self.n_iter]
        self.n_iter += 1
        return item.element

    def reveal(self, element):
        item, self._last = self._last, None
        if item is None or element is not item.element:
            raise ps.ContractViolation(f"{element!r} is not the element just observed")
        self.n_sel += 1
        self.reveal_positions.append(self.n_iter)
        return item.response


class TestWaitEmulator:
    def test_single_atom_recurs_immediately(self):
        # Pool of one repeated symbol: observe it, then the very next
        # arrival matches, so every run costs exactly two observations.
        emulator = ps.WaitEmulator(greedy(1, 1, tie_break="index"))
        for t in range(200):
            record = ps.run_stream(emulator, ps.point_mass(3.0), 1,
                                   ps.trial_rng(20, t))
            assert record.n_iter == 2
            assert record.n_sel == 1

    def test_mean_wait_is_alphabet_size(self):
        # Waiting for one named symbol out of k uniform ones is geometric
        # with mean k; band is a 6-sigma envelope at 1e5 trials.
        emulator = ps.WaitEmulator(greedy(4, 1, tie_break="index"))
        dist = ps.uniform_symbols(4)
        waits = [r.n_iter - 4
                 for r in batch(emulator, dist, 1, 21, 10**5)]
        assert 3.88 <= np.mean(waits) <= 4.12

    def test_rejects_atomless_sources(self):
        emulator = ps.WaitEmulator(greedy(2, 1))
        with pytest.raises(ps.AtomlessDistribution):
            ps.run_stream(emulator, ps.uniform_interval(), 1, ps.trial_rng(22, 0))

    def test_rejects_interval_marginal_without_tiebreaks(self):
        # Not atomless by flag, yet no real base ever recurs.
        emulator = ps.WaitEmulator(greedy(2, 1))
        dist = ps.SourceDistribution(ps.IntervalMarginal(((0.0, 1.0, 1.0),)),
                                     atomless=False)
        with pytest.raises(ps.AtomlessDistribution):
            ps.run_stream(emulator, dist, 1, ps.trial_rng(22, 1), max_iter=200000)

    def test_reveals_exactly_q(self):
        emulator = ps.WaitEmulator(greedy(4, 2, tie_break="index"))
        for record in batch(emulator, ps.uniform_symbols(3), 2, 23, 200):
            assert record.n_sel == 2


class TestNowaitEmulator:
    def test_counters_equal_pool_size(self):
        emulator = ps.NowaitEmulator(greedy(4, 2, tie_break="index"))
        for record in batch(emulator, ps.uniform_symbols(3), 2, 24, 200):
            assert record.n_iter == 4
            assert record.n_sel == 4
            assert len(record.output) == 2

    def test_forced_stream_selects_argmax(self):
        source = FakeSource([ps.LabeledPair(ps.Element(b, 0.0), 0)
                             for b in (0.1, 0.7, 0.4)])
        out = ps.NowaitEmulator(greedy(3, 1)).run(source, 1)
        assert [p.element.base for p in out] == [0.7]
        assert source.n_sel == 3

    def test_matches_wait_when_budget_equals_pool(self):
        # With q = m both emulators output the full pool content.
        dist = ps.uniform_symbols(2, response_one=0.5)
        canon = ps.DiscreteProjection()
        trials = 20000
        wait = ps.empirical_distribution(
            batch(ps.WaitEmulator(greedy(2, 2, tie_break="index")), dist, 2, 25, trials),
            canon)
        nowait = ps.empirical_distribution(
            batch(ps.NowaitEmulator(greedy(2, 2, tie_break="index")), dist, 2, 26, trials),
            canon)
        assert ps.tv_distance(wait, nowait) <= 0.03


class TestRejectionEmulator:
    def test_single_element_pool_accepts_first_draw(self):
        emulator = ps.RejectionEmulator(greedy(1, 1))
        for t in range(100):
            record = ps.run_stream(emulator, ps.uniform_interval(), 1,
                                   ps.trial_rng(27, t))
            assert record.n_iter == 1
            assert record.n_sel == 1

    def test_mean_iterations_single_selection(self):
        # Acceptance per redraw is 1/m by symmetry, m draws each: E = m^2.
        emulator = ps.RejectionEmulator(greedy(3, 1))
        records = batch(emulator, ps.uniform_interval(), 1, 28, 20000)
        assert 8.7 <= np.mean([r.n_iter for r in records]) <= 9.3

    def test_reveals_exactly_q(self):
        emulator = ps.RejectionEmulator(greedy(4, 2))
        dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
        for record in batch(emulator, dist, 2, 29, 300):
            assert record.n_sel == 2

    def test_rejects_atom_bearing_sources(self):
        emulator = ps.RejectionEmulator(greedy(2, 1))
        with pytest.raises(ps.AtomlessDistribution):
            ps.run_stream(emulator, ps.uniform_symbols(2), 1, ps.trial_rng(30, 0))

    def test_iteration_cap_attaches_progress(self):
        emulator = ps.RejectionEmulator(greedy(5, 3))
        with pytest.raises(ps.IterationCapExceeded) as info:
            ps.run_stream(emulator, ps.uniform_interval(), 3,
                          ps.trial_rng(31, 0), max_iter=7)
        assert info.value.n_iter == 7
        assert info.value.n_sel <= 3

    def test_distribution_matches_pool(self):
        dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
        alg = greedy(4, 2)
        exact = ps.exact_pool_distribution(alg, dist, 4, 2)
        empirical = ps.empirical_distribution(
            batch(ps.RejectionEmulator(alg), dist, 2, 32, 20000), ps.DiscreteProjection())
        assert ps.tv_distance(exact, empirical) <= 0.03


class TestSecretaryEmulator:
    def test_trivial_horizon(self):
        emulator = ps.SecretaryEmulator(lambda e, h: e.base, 1)
        record = ps.run_stream(emulator, ps.uniform_interval(), 1,
                               ps.trial_rng(33, 0))
        assert record.n_iter == 1 and record.n_sel == 1
        assert record.round_attempts == (1,)

    def test_rejects_atom_bearing_sources(self):
        emulator = ps.SecretaryEmulator(lambda e, h: e.base, 2)
        with pytest.raises(ps.AtomlessDistribution):
            ps.run_stream(emulator, ps.uniform_symbols(2), 1, ps.trial_rng(34, 0))

    def test_selection_scores_strictly_decrease(self):
        # Domain filtering means later accepted elements score below every
        # earlier cutoff, evaluated against the history of its round.
        utility = lambda e, h: e.base
        emulator = ps.SecretaryEmulator(utility, 5)
        for t in range(100):
            record = ps.run_stream(emulator, ps.uniform_interval(), 3,
                                   ps.trial_rng(35, t))
            out = record.output
            for i in range(1, 3):
                for j in range(i):
                    hist = out[:j]
                    assert ((utility(out[i].element, hist), out[i].element.tiebreak)
                            < (utility(out[j].element, hist), out[j].element.tiebreak))

    def test_stopping_rule_is_secpr(self):
        # Differential check of the emulator's stopping rule against secpr:
        # every ordering of n <= 6 distinct scores forms the first attempt,
        # followed by an attempt whose maximum sits at the threshold, which
        # the rule is sure to win.
        cases = 0
        mismatches = []
        for n in range(1, 7):
            policy = ps.optimal_policy(n)
            r = policy.threshold
            sure_win = tuple(float(n + 1) if j == r else -float(j) for j in range(1, n + 1))
            for scores in itertools.permutations(float(s) for s in range(1, n + 1)):
                source = FakeSource([ps.LabeledPair(ps.Element(s, 0.0), 0)
                                     for s in scores + sure_win])
                cases += 1
                try:
                    ps.SecretaryEmulator(lambda e, h: e.base, n).run(source, 1)
                except IndexError:  # ran past both scripted attempts
                    mismatches.append(scores)
                    continue
                revealed = [k for k in source.reveal_positions if k <= n]
                fires = [k for k in range(1, n + 1) if ps.secpr(policy, scores[:k])]
                won = bool(fires) and scores[fires[0] - 1] == n
                if revealed != fires or source.round_attempts != (1 if won else 2,):
                    mismatches.append(scores)
        assert cases == 873
        assert len(mismatches) == 0, mismatches[:5]

    def test_round_attempt_means(self):
        emulator = ps.SecretaryEmulator(lambda e, h: e.base, 4)
        records = batch(emulator, ps.uniform_interval(), 2, 36, 20000)
        attempts = np.mean([r.round_attempts for r in records], axis=0)
        # Horizons shrink per round: expected attempts are 1/p(4), 1/p(3).
        assert abs(attempts[0] - 24 / 11) < 0.06
        assert abs(attempts[1] - 2.0) < 0.06

    def test_distribution_matches_pool_on_discrete_base(self):
        dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
        alg = greedy(4, 2)
        exact = ps.exact_pool_distribution(alg, dist, 4, 2)
        emulator = ps.SecretaryEmulator(lambda e, h: e.base, 4)
        empirical = ps.empirical_distribution(
            batch(emulator, dist, 2, 37, 20000), ps.DiscreteProjection())
        assert ps.tv_distance(exact, empirical) <= 0.03

    def test_history_dependent_utility_equivalence(self):
        # Once a response 1 has been seen, prefer small bases instead.
        def flip(e, h):
            if any(p.response == 1 for p in h):
                return -e.base
            return e.base

        dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
        alg = ps.GreedyUtilityPool(flip, 4, 2)
        exact = ps.exact_pool_distribution(alg, dist, 4, 2)
        empirical = ps.empirical_distribution(
            batch(ps.SecretaryEmulator(flip, 4), dist, 2, 38, 20000),
            ps.DiscreteProjection())
        assert ps.tv_distance(exact, empirical) <= 0.03


class TestTies:
    def test_duplicate_values_raise_without_tiebreak(self):
        pool = [ps.LabeledPair(ps.Element(1.0, 0.0), 0)] * 2
        with pytest.raises(ps.TieDetected):
            ps.run_pool(greedy(2, 1), pool, 1)

    def test_index_tie_break_is_allowed(self):
        pool = [ps.LabeledPair(ps.Element(1.0, 0.0), i) for i in range(2)]
        record = ps.run_pool(greedy(2, 2, tie_break="index"), pool, 2)
        assert [p.response for p in record.output] == [0, 1]
