"""Canonicalization, exact enumeration, empirical counting, TV metric."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poolstream as ps
from poolstream.cli import build_fixture, run_trials
from poolstream.core import ContractViolation
from poolstream.stats import InsufficientSamples, TooLargeToEnumerate
from pool_helpers import (BERNOULLI, coarse_utility, first_q_exact_distribution, greedy,
                          run_pool)


def pair(base, tiebreak=0.0, response=0):
    return ps.LabeledPair(ps.Element(base, tiebreak), response)


class TestCanonicalization:
    def test_discrete_projection_drops_tiebreaks_and_order(self):
        canon = ps.DiscreteProjection()
        a = [pair(1.0, 0.3, 1), pair(0.0, 0.9, 0)]
        b = [pair(0.0, 0.1, 0), pair(1.0, 0.7, 1)]
        assert canon(a) == canon(b) == ((0.0, 0), (1.0, 1))

    def test_discrete_projection_keeps_multiplicity(self):
        canon = ps.DiscreteProjection()
        assert canon([pair(1.0, 0.1), pair(1.0, 0.2)]) == ((1.0, 0), (1.0, 0))

    def test_discrete_projection_idempotent(self):
        canon = ps.DiscreteProjection()
        outcome = canon([pair(2.0, 0.5, 1), pair(0.0, 0.4, 0)])
        rebuilt = [pair(base, 0.0, resp) for base, resp in outcome]
        assert canon(rebuilt) == outcome

    def test_rank_pattern_orders_by_value(self):
        canon = ps.RankPattern()
        out = canon([pair(0.7), pair(0.2), pair(0.5, response=1)])
        assert out == ((0, 3, 0), (0, 1, 0), (0, 2, 1))

    def test_rank_pattern_uses_bucket(self):
        canon = ps.RankPattern(ps.region_of)
        out = canon([pair(0.7), pair(1.5)])
        assert out == ((0, 1, 0), (1, 2, 0))

    def test_rank_pattern_depends_only_on_relative_order(self):
        canon = ps.RankPattern()
        a = canon([pair(0.9), pair(0.1)])
        b = canon([pair(0.51), pair(0.49)])
        assert a == b


class TestTvDistance:
    def dist(self, masses, projection="discrete"):
        return ps.OutcomeDistribution(dict(masses), projection)

    def test_identical_is_zero(self):
        d = self.dist({("a",): 0.5, ("b",): 0.5})
        assert ps.tv_distance(d, d) == 0.0

    def test_disjoint_is_one(self):
        a = self.dist({("a",): 1.0})
        b = self.dist({("b",): 1.0})
        assert ps.tv_distance(a, b) == 1.0

    def test_direct_formula(self):
        a = self.dist({("x",): 0.5, ("y",): 0.5})
        b = self.dist({("x",): 0.6, ("y",): 0.4})
        assert ps.tv_distance(a, b) == pytest.approx(0.1)

    def test_projection_mismatch_rejected(self):
        a = self.dist({("x",): 1.0})
        b = self.dist({("x",): 1.0}, projection="rank")
        with pytest.raises(ValueError):
            ps.tv_distance(a, b)
        # Laws carry their canonicalizer; equal ones compare, others do not.
        rank = self.dist({("x",): 1.0}, projection=ps.RankPattern())
        assert ps.tv_distance(rank, self.dist({("x",): 1.0}, ps.RankPattern())) == 0.0
        for other in (ps.RankPattern(ps.region_of), ps.DiscreteProjection()):
            with pytest.raises(ValueError):
                ps.tv_distance(rank, self.dist({("x",): 1.0}, projection=other))

    @given(st.lists(st.tuples(st.floats(0.001, 1), st.floats(0.001, 1),
                              st.floats(0.001, 1)),
                    min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_metric_properties(self, rows):
        keys = [(i,) for i in range(len(rows))]

        def normalize(col):
            total = sum(row[col] for row in rows)
            return self.dist({k: row[col] / total for k, row in zip(keys, rows)})

        p, q, r = normalize(0), normalize(1), normalize(2)
        dpq, dqp = ps.tv_distance(p, q), ps.tv_distance(q, p)
        assert dpq == pytest.approx(dqp)
        assert 0.0 <= dpq <= 1.0
        assert dpq <= ps.tv_distance(p, r) + ps.tv_distance(r, q) + 1e-12


class TestMeanCI:
    def test_constant_sequence(self):
        est = ps.mean_ci([2.0] * 10)
        assert est.mean == 2.0
        assert est.half_width == 0.0

    def test_balanced_coin(self):
        est = ps.mean_ci([0.0] * 50000 + [1.0] * 50000)
        assert 0.49 <= est.mean <= 0.51
        assert est.trials == 100000

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientSamples):
            ps.mean_ci([1.0])


class TestExactPoolDistribution:
    def test_budget_equals_pool_gives_content_distribution(self):
        dist = ps.uniform_symbols(2)
        out = ps.exact_pool_distribution(greedy(2, 2), dist)
        assert out.support[((0.0, 0), (0.0, 0))] == pytest.approx(0.25)
        assert out.support[((0.0, 0), (1.0, 0))] == pytest.approx(0.5)
        assert out.support[((1.0, 0), (1.0, 0))] == pytest.approx(0.25)

    def test_greedy_single_pick_two_symbols(self):
        # Output {b} unless the pool is all-a: mass 3/4.
        dist = ps.uniform_symbols(2)
        out = ps.exact_pool_distribution(greedy(2, 1), dist)
        assert out.support[((1.0, 0),)] == pytest.approx(0.75)
        assert out.support[((0.0, 0),)] == pytest.approx(0.25)

    def test_response_branching_weights(self):
        dist = ps.uniform_symbols(1, response_one=0.3)
        out = ps.exact_pool_distribution(greedy(1, 1), dist)
        assert out.support[((0.0, 1),)] == pytest.approx(0.3)
        assert out.support[((0.0, 0),)] == pytest.approx(0.7)

    def test_masses_sum_to_one(self):
        dist = ps.uniform_symbols(3, response_one={0.0: 0.2, 1.0: 0.5, 2.0: 0.8})
        out = ps.exact_pool_distribution(greedy(4, 2), dist)
        assert out.total() == pytest.approx(1.0, abs=1e-9)

    def test_symbol_order_does_not_matter(self):
        law = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}
        forward = ps.SourceDistribution(
            ps.DiscreteMarginal((0.0, 1.0, 2.0), (0.2, 0.3, 0.5)), law)
        backward = ps.SourceDistribution(
            ps.DiscreteMarginal((2.0, 1.0, 0.0), (0.5, 0.3, 0.2)), law)
        a = ps.exact_pool_distribution(greedy(3, 2), forward)
        b = ps.exact_pool_distribution(greedy(3, 2), backward)
        assert a.support.keys() == b.support.keys()
        for key in a.support:
            assert a.support[key] == pytest.approx(b.support[key])

    def test_rank_enumeration_point_mass_for_greedy(self):
        out = ps.exact_pool_distribution(greedy(4, 2), ps.uniform_interval())
        assert out.support == {((0, 2, 0), (0, 1, 0)): pytest.approx(1.0)}

    def test_chain_outputs_forced_on_pools_containing_the_chain(self):
        # Conditioned on the pool containing symbols 1..2q-1, the output is
        # forced; verified by enumerating exactly those pools.
        fixture = ps.chain_fixture(13, 2)
        assert fixture.n >= 3
        alg = ps.GreedyUtilityPool(fixture.utility, 4, 2)
        dist = fixture.dists[0]
        symbols = [int(s) for s in dist.marginal.symbols]
        target = ps.DiscreteProjection()(
            [pair(1.0), pair(2.0)])
        for combo in itertools.product(symbols, repeat=4):
            if not {1, 2, 3} <= set(combo):
                continue
            pool = [pair(float(s), tiebreak=(i + 1) / 10)
                    for i, s in enumerate(combo)]
            record = run_pool(alg, pool)
            assert ps.DiscreteProjection()(record) == target

    @pytest.mark.parametrize("atomless", [True, False], ids=["atomless", "atoms"])
    def test_unequal_ties_raise_in_the_exact_law(self, atomless):
        # Bases 1.0 and 2.0 score alike, so only a tie-break or the pool order
        # decides between them: one enumerated ordering per multiset cannot
        # carry that law, and the enumerator must not report one.
        alg = ps.GreedyUtilityPool(coarse_utility, 4, 2)
        dist = ps.uniform_symbols(3, atomless=atomless, response_one=BERNOULLI)
        with pytest.raises(ps.TieDetected):
            ps.exact_pool_distribution(alg, dist)

    def test_discrete_budget_guard(self):
        # C(39, 9) multisets x 2^2 responses is about 8.5e8.
        dist = ps.uniform_symbols(10)
        with pytest.raises(TooLargeToEnumerate):
            ps.exact_pool_distribution(greedy(30, 2), dist)

    def test_two_region_budget_guard(self):
        # 10! coded pools x 2^2 responses is about 1.5e7; m = 10 still enumerates.
        with pytest.raises(TooLargeToEnumerate, match="10! coded pools"):
            ps.two_region_exact_distribution(11, 2)

    def test_m10_q5_laws_enumerate(self):
        out = build_fixture("greedy-max", 10, 5).exact()
        assert out.support == {
            ((0, 5, 0), (0, 4, 0), (0, 3, 0), (0, 2, 0), (0, 1, 0)): pytest.approx(1.0)}
        out = build_fixture("greedy-max-discrete", 10, 5).exact()
        assert out.total() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("pick", [lambda selected: True,
                                      lambda selected: min(selected, default=0)],
                             ids=["bool-index", "repeated-index"])
    def test_selection_contract_is_enforced(self, pick):
        class Broken(ps.PoolAlgorithm):
            def select_next(self, elements, history, selected):
                return pick(selected)

        for dist in (ps.uniform_symbols(2), ps.uniform_interval()):
            with pytest.raises(ContractViolation):
                ps.exact_pool_distribution(Broken(3, 2), dist)

    def test_rank_mode_guards(self):
        # One pool, but 2^24 response branches.
        with pytest.raises(TooLargeToEnumerate):
            ps.exact_pool_distribution(greedy(30, 24), ps.uniform_interval())
        varying = ps.SourceDistribution(
            ps.IntervalMarginal(((0.0, 1.0, 1.0),)), {0.5: 1.0}, atomless=True)
        with pytest.raises(TooLargeToEnumerate):
            ps.exact_pool_distribution(greedy(3, 1), varying)
        with pytest.raises(TooLargeToEnumerate):
            ps.exact_pool_distribution(ps.CodedPoolAlgorithm(3, 1), ps.two_region_marginal(3))


class TestTwoRegionExact:
    def test_m4_q2_masses(self):
        # Region-count arithmetic: P[#high = h] = C(4,h)(1/4)^h(3/4)^(4-h).
        # One high ends (low, high); otherwise two smallest of the feasible
        # region, giving (low, low) for h in {0, 2} and (high, high) for
        # h in {3, 4}.
        out = ps.two_region_exact_distribution(4, 2)
        low_low = Fraction(81, 256) + Fraction(54, 256)
        good = Fraction(108, 256)
        high_high = Fraction(12, 256) + Fraction(1, 256)
        assert out.support[((0, 1, 0), (0, 2, 0))] == pytest.approx(float(low_low))
        assert out.support[((0, 1, 0), (1, 2, 0))] == pytest.approx(float(good))
        assert out.support[((1, 1, 0), (1, 2, 0))] == pytest.approx(float(high_high))

    def test_m3_q1_masses(self):
        out = ps.two_region_exact_distribution(3, 1)
        assert out.support[((1, 1, 0),)] == pytest.approx(13 / 27)
        assert out.support[((0, 1, 0),)] == pytest.approx(14 / 27)

    def test_sigma_order_symmetry_at_q3(self):
        # With two low picks before the high one, the two selection orders
        # are equally likely because the coded permutation is uniform.
        out = ps.two_region_exact_distribution(5, 3)
        ascending = out.support[((0, 1, 0), (0, 2, 0), (1, 3, 0))]
        descending = out.support[((0, 2, 0), (0, 1, 0), (1, 3, 0))]
        assert ascending == pytest.approx(descending)

    def test_total_mass(self):
        for m, q in ((3, 1), (4, 2), (5, 3)):
            assert ps.two_region_exact_distribution(m, q).total() == pytest.approx(1.0)

    def test_nonzero_response_law_branches(self):
        out = ps.two_region_exact_distribution(3, 2, response_one=0.5)
        assert out.total() == pytest.approx(1.0)
        # With a 1-response on the first pick, good pools end on a low.
        assert any(key[-1][0] == 0 and key[0][2] == 1 for key in out.support)

    @pytest.mark.parametrize("args,error", [
        ((1, 1), ValueError), ((4, 2, 1.5), ValueError), ((4, 2, {1.5: 1.0}), TypeError)],
        ids=["m-below-two", "law-above-one", "mapping-law"])
    def test_source_checks_refuse_bad_arguments(self, args, error):
        # The marginal and SourceDistribution make these checks for the law.
        with pytest.raises(error):
            ps.two_region_exact_distribution(*args)


class TestFirstQExact:
    def test_two_picks(self):
        out = first_q_exact_distribution(2)
        assert out.support == {
            ((0, 1, 0), (0, 2, 0)): pytest.approx(0.5),
            ((0, 2, 0), (0, 1, 0)): pytest.approx(0.5),
        }

    def test_matches_simulation(self):
        failures = []
        empirical = ps.empirical_distribution(
            run_trials(ps.FirstQEmulator(greedy(3, 3)), ps.uniform_interval(), 50, 20000,
                       failures),
            ps.RankPattern())
        assert not failures
        assert empirical.trials == 20000
        exact = first_q_exact_distribution(3)
        assert ps.tv_distance(exact, empirical) <= 0.03


class TestEmpiricalDistribution:
    def test_deterministic_runner_single_point(self):
        out = ps.empirical_distribution([[pair(1.0)]] * 50, ps.DiscreteProjection())
        assert out.support == {((1.0, 0),): 1.0}
        assert out.trials == 50

    def test_empty_batch_has_empty_support(self):
        out = ps.empirical_distribution([], ps.DiscreteProjection())
        assert out.support == {}
        assert out.trials == 0

    def test_fair_coin_masses(self):
        bits = ps.trial_rng(51, 0).integers(0, 2, size=10**6).tolist()
        runs = ([pair(0.0)], [pair(1.0)])
        out = ps.empirical_distribution([runs[b] for b in bits],
                                        ps.DiscreteProjection())
        assert 0.497 <= out.support[((0.0, 0),)] <= 0.503
        assert 0.497 <= out.support[((1.0, 0),)] <= 0.503
