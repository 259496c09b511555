"""Fixture tests: permutation coding, chain utility, hypothesis class, learner."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import poolstream as ps
from poolstream.core import StreamSource
from pool_helpers import complete_pool, expected_output, pool_bit_learner, run_pool


def pair(base, tiebreak=0.0, response=0):
    return ps.LabeledPair(ps.Element(base, tiebreak), response)


class TestPermutationCoding:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_roundtrip(self, size):
        for perm in itertools.permutations(range(size)):
            u = ps.unit_from_permutation(perm)
            assert 0.0 < u <= 1.0
            assert ps.permutation_from_unit(u, size) == perm

    def test_lehmer_index_matches_fraction_reference(self):
        # The exact-rational sum the integer Lehmer index replaced; both round
        # the same midpoint once, so the floats must be bit-identical.
        def reference(perm):
            size = len(perm)
            available = list(range(size))
            value, scale = Fraction(0), Fraction(1)
            for radix in range(size, 1, -1):
                digit = available.index(perm[size - radix])
                available.pop(digit)
                scale /= radix
                value += digit * scale
            return float(value + scale / 2)

        perms = [perm for size in range(1, 9)
                 for perm in itertools.permutations(range(size))]
        rng = random.Random(17)
        perms += [tuple(rng.sample(range(size), size))
                  for size in range(9, 26) for _ in range(20)]
        for perm in perms:
            assert ps.unit_from_permutation(perm) == reference(perm), perm

    def test_determinism(self):
        assert (ps.permutation_from_unit(0.37, 4)
                == ps.permutation_from_unit(0.37, 4))

    def test_endpoint(self):
        # u = 1.0 (base exactly 2.0) must decode without error.
        assert len(ps.permutation_from_unit(1.0, 4)) == 4

    def test_prefix_decode_matches_reference(self):
        # The whole-permutation decode loop the prefix decode replaced: every
        # length must give that permutation's prefix, and no call may skip
        # the input checks, also right after a valid call.
        def reference(u, size):
            frac = u if u < 1.0 else math.nextafter(1.0, 0.0)
            available = list(range(size))
            perm = []
            for radix in range(size, 1, -1):
                frac *= radix
                digit = int(frac)
                if digit >= radix:
                    digit = radix - 1
                frac -= digit
                perm.append(available.pop(digit))
            perm.append(available.pop())
            return tuple(perm)

        decode = ps.permutation_from_unit
        us = ps.trial_rng(42, 0).random(30).tolist() + [1.0]
        for size in range(1, 8):
            for u in us:
                whole = reference(u, size)
                for length in range(1, size + 1):
                    got = decode(u, size, length)
                    assert type(got) is tuple and got == whole[:length], (u, size, length)
                assert decode(u, size) == whole
                for length in (0, size + 1):
                    with pytest.raises(ValueError):
                        decode(u, size, length)
        for bad in ((-0.25, 3), (-5e-324, 1), (0.5, 0), (0.5, -1),
                    (1.5, 4), (math.nan, 4), (-0.1, 4)):
            for length in (None, 1):
                decode(0.5, 3)
                for _ in range(3):
                    with pytest.raises(ValueError):
                        decode(*bad, length)

    @pytest.mark.parametrize("size", [2, 3])
    def test_uniform_pushforward(self, size):
        rng = ps.trial_rng(40, size)
        counts = Counter(ps.permutation_from_unit(u, size)
                         for u in rng.random(10**5).tolist())
        expected = 1.0 / math.factorial(size)
        assert len(counts) == math.factorial(size)
        for count in counts.values():
            assert abs(count / 10**5 - expected) < 0.01


class TestTwoRegionMarginal:
    def test_region_masses_exact_by_construction(self):
        dist = ps.two_region_marginal(4)
        (lo_piece, hi_piece) = dist.marginal.pieces
        assert hi_piece == (1.0, 2.0, 0.25)
        assert lo_piece == (0.0, 1.0, 0.75)

    def test_single_high_probability_small_m(self):
        # Exactly one of two elements high: 2 * (1/2) * (1/2) = 1/2.
        m = 2
        p_high = 1.0 / m
        p_good = m * p_high * (1 - p_high) ** (m - 1)
        assert p_good == 0.5

    def test_single_high_frequency_m10(self):
        dist = ps.two_region_marginal(10)
        src = StreamSource(dist, ps.trial_rng(41, 0))
        good = 0
        for _ in range(10**5):
            highs = sum(src.next().base > 1.0 for _ in range(10))
            good += highs == 1
        assert good / 10**5 >= 0.13


class TestCodedPool:
    def build_good_pool(self, m, sigma, responses=0):
        lows = [pair((i + 1) / m, response=responses) for i in range(m - 1)]
        hi = pair(1.0 + ps.unit_from_permutation(sigma), response=responses)
        return lows, hi

    def test_all_zero_responses_end_on_high(self):
        m, q = 5, 3
        sigma = (2, 0, 3, 1)
        lows, hi = self.build_good_pool(m, sigma)
        record = run_pool(ps.CodedPoolAlgorithm(m, q), lows + [hi])
        got = [p.element for p in record.output]
        assert got[:2] == [lows[sigma[0]].element, lows[sigma[1]].element]
        assert got[2] == hi.element

    def test_nonzero_response_diverts_last_pick(self):
        m, q = 5, 3
        sigma = (2, 0, 3, 1)
        lows, hi = self.build_good_pool(m, sigma, responses=1)
        record = run_pool(ps.CodedPoolAlgorithm(m, q), lows + [hi])
        got = [p.element for p in record.output]
        assert got[2] == lows[sigma[q - 1]].element
        assert all(e.base <= 1.0 for e in got)

    def test_single_round_budget_takes_high(self):
        lows, hi = self.build_good_pool(3, (0, 1))
        record = run_pool(ps.CodedPoolAlgorithm(3, 1), lows + [hi])
        assert record.output[0].element == hi.element

    def test_bad_pool_prefers_low_region_ascending(self):
        pool = [pair(0.8), pair(0.3), pair(1.4), pair(1.9)]
        record = run_pool(ps.CodedPoolAlgorithm(4, 2), pool)
        assert [p.element.base for p in record.output] == [0.3, 0.8]

    def test_bad_pool_falls_back_to_high_region(self):
        pool = [pair(0.8), pair(1.2), pair(1.4), pair(1.9)]
        record = run_pool(ps.CodedPoolAlgorithm(4, 2), pool)
        assert [p.element.base for p in record.output] == [1.2, 1.4]

    def test_infeasible_split_raises(self):
        pool = [pair(0.2), pair(0.8), pair(1.2), pair(1.9)]
        with pytest.raises(ps.InfeasiblePool):
            run_pool(ps.CodedPoolAlgorithm(4, 3), pool)


class TestChainFixture:
    def test_alphabet_size_formula(self):
        assert ps.chain_fixture(8, 2).n == 2
        assert ps.chain_fixture(20, 2).n == int(20 / (2 * math.log(4)))

    def test_regime_guards(self):
        with pytest.raises(ps.InvalidRegime):
            ps.chain_fixture(7, 2)
        with pytest.raises(ps.InvalidRegime):
            ps.chain_fixture(8, 5)
        with pytest.raises(ps.InvalidRegime):
            ps.chain_fixture(8, 4)  # alphabet would be smaller than the budget

    @pytest.mark.parametrize("q", [0, -1])
    def test_budget_below_one_is_out_of_regime(self, q):
        with pytest.raises(ps.InvalidRegime, match="1 <= q"):
            ps.chain_fixture(8, q)

    def test_response_law_family(self):
        fixture = ps.chain_fixture(12, 2)
        assert fixture.dists[0].prob_one(1.0) == 0.0
        assert fixture.dists[1].prob_one(1.0) == 1.0
        assert fixture.dists[1].prob_one(2.0) == 0.0
        assert all(d.atomless for d in fixture.dists)

    def test_argmax_unique_on_reachable_histories(self):
        fixture = chain_with_alphabet(5, 64)
        utility, n, q = fixture.utility, fixture.n, fixture.q
        histories = [tuple(pair(float(s + 1)) for s in range(length))
                     for length in range(q)]
        histories += [h[:-1] + (pair(h[-1].element.base, response=1),)
                      for h in histories if h]
        elements = [ps.Element(float(s), 0.0) for s in range(1, n + 1)]
        for history in histories:
            scores = [utility(e, history) for e in elements]
            top = max(scores)
            assert scores.count(top) == 1

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_forced_outputs_per_response_law(self, q):
        fixture = chain_with_alphabet(q, 2 * q - 1)
        m = 2 * q + 1
        alg = ps.GreedyUtilityPool(fixture.utility, m, q)
        for t in range(q + 1):
            dist = fixture.dists[t]
            bases = list(range(1, 2 * q)) + [1, 1][: m - (2 * q - 1)]
            pool = [pair(float(b), tiebreak=(i + 1) / 50,
                         response=int(dist.prob_one(float(b))))
                    for i, b in enumerate(bases)]
            record = run_pool(alg, pool)
            got = frozenset(int(p.element.base) for p in record.output)
            assert got == expected_output(fixture, t)
            # revealed responses follow the law: 1 exactly on symbol t
            for p in record.output:
                assert p.response == (1 if int(p.element.base) == t else 0)


def chain_with_alphabet(q, n_min):
    """Smallest valid chain fixture whose alphabet holds at least n_min symbols."""
    m = 8
    while True:
        try:
            fixture = ps.chain_fixture(m, q)
            if fixture.n >= n_min:
                return fixture
        except ps.InvalidRegime:
            pass
        m += 1


class TestHypothesisClass:
    def test_shape_guards(self):
        with pytest.raises(ps.InvalidShape):
            ps.hypothesis_class(3, 4, 100)
        with pytest.raises(ps.InvalidShape):
            ps.hypothesis_class(3, 2, 5)  # below q * 2^T / 2

    def test_low_level_examples(self):
        hc = ps.hypothesis_class(3, 2, 8)
        assert hc.evaluate(5, hc.kj_to_base[(1, 0)]) == 0
        for k in (1, 2):
            assert hc.evaluate(0, hc.kj_to_base[(k, 0)]) == 1
        # Beyond level T the window has T bits; (6 >> 1) & 3 == 3 matches no j < 2.
        assert hc.evaluate(6, hc.kj_to_base[(3, 0)]) == 0
        assert hc.evaluate(6, hc.kj_to_base[(3, 1)]) == 0

    def test_window_branch_against_bit_string_oracle(self):
        hc = ps.hypothesis_class(5, 2, 24)
        for i in range(1 << 5):
            bits = format(i, "08b")[::-1]  # bits[t] = bit t of i
            for (k, j), base in hc.kj_to_base.items():
                if k <= hc.T:
                    expected = int(int(bits[:k][::-1] or "0", 2) == j)
                else:
                    window = bits[k - hc.T:k][::-1]
                    expected = int(int(window, 2) == j)
                assert hc.evaluate(i, base) == expected, (i, k, j)

    def test_fillers_always_labeled_zero(self):
        hc = ps.hypothesis_class(2, 1, 6)
        chain_bases = set(hc.kj_to_base.values())
        for base in range(hc.n):
            if float(base) not in chain_bases:
                assert all(hc.evaluate(i, float(base)) == 0 for i in range(4))

    def test_hypotheses_pairwise_distinct(self):
        for q in (3, 6, 10):
            T = max(1, math.ceil(math.log2(q)))
            hc = ps.hypothesis_class(q, T, q * (1 << T))
            signatures = {
                tuple(hc.evaluate(i, float(s)) for s in range(hc.n))
                for i in range(1 << q)}
            assert len(signatures) == 1 << q

    @pytest.mark.parametrize("target", [-1, 8, 99])
    def test_source_refuses_a_target_outside_the_class(self, target):
        # evaluate reads only q bits of the index, so 99 and -1 would alias
        # targets 3 and 7 of the 2^3 hypotheses.
        hc = ps.hypothesis_class(3, 2, 12)
        with pytest.raises(ValueError, match=r"target must be in \[0, 7\]"):
            hc.source(target)
        assert hc.source(7).response_one != hc.source(3).response_one


class TestBitLearner:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_identifies_every_target(self, q):
        T = max(1, math.ceil(math.log2(q)))
        hc = ps.hypothesis_class(q, T, q * (1 << T))
        for target in range(1 << q):
            pool = complete_pool(hc, target)
            got, record = pool_bit_learner(hc, pool, q)
            assert got == target
            assert record.n_sel == q

    def test_single_bit(self):
        hc = ps.hypothesis_class(1, 1, 2)
        for target in (0, 1):
            got, _ = pool_bit_learner(hc, complete_pool(hc, target), 1)
            assert got == target

    def test_traced_example(self):
        hc = ps.hypothesis_class(3, 2, 8)
        got, record = pool_bit_learner(hc, complete_pool(hc, 5), 3)
        assert got == 5
        queried = [hc.base_to_kj[p.element.base] for p in record.output]
        assert queried == [(1, 0), (2, 1), (3, 0)]

    def test_incomplete_pool(self):
        hc = ps.hypothesis_class(3, 2, 8)
        pool = [p for p in complete_pool(hc, 5)
                if hc.base_to_kj.get(p.element.base, (0, 0))[0] != 2]
        with pytest.raises(ps.IncompletePool):
            pool_bit_learner(hc, pool, 3)

    def test_permutation_invariance_on_query_path(self):
        hc = ps.hypothesis_class(3, 2, 8)
        for target in range(8):
            # all five chain elements, so every query path is available
            needed = complete_pool(hc, target)[:5]
            base_run = run_pool(ps.BitIdentificationPool(hc, 5), needed)
            reference = sorted(base_run.output)
            for perm in itertools.permutations(range(5)):
                shuffled = [needed[i] for i in perm]
                record = run_pool(ps.BitIdentificationPool(hc, 5), shuffled)
                assert sorted(record.output) == reference
