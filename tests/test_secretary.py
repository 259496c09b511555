"""Secretary policy tests against an independent permutation brute force."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolstream.secretary import InvalidHorizon, SecretaryPolicy, optimal_policy, policy_table
from pool_helpers import DuplicateScore, secpr, success_probability_exact


def simulate_threshold_rule(ranks, threshold):
    """Independent oracle: observe ranks[:threshold-1], take the first later record.

    Returns the index of the selected candidate, or None if the rule never fires.
    """
    best_seen = max(ranks[: threshold - 1], default=None)
    for j in range(threshold - 1, len(ranks)):
        if best_seen is None or ranks[j] > best_seen:
            return j
    return None


def brute_force_success(n, threshold):
    """Exact success rate of a threshold rule over all n! arrival orders."""
    wins = 0
    for ranks in itertools.permutations(range(1, n + 1)):
        j = simulate_threshold_rule(ranks, threshold)
        if j is not None and ranks[j] == n:
            wins += 1
    return Fraction(wins, math.factorial(n))


# Frozen values, each re-derived below by the brute force.
EXPECTED = {
    1: (1, Fraction(1)),
    2: (1, Fraction(1, 2)),
    3: (2, Fraction(1, 2)),
    4: (2, Fraction(11, 24)),
    5: (3, Fraction(13, 30)),
    6: (3, Fraction(77, 180)),
    7: (3, Fraction(29, 70)),
}


@pytest.mark.parametrize("n", sorted(EXPECTED))
def test_policy_matches_brute_force(n):
    policy = optimal_policy(n)
    threshold, p = EXPECTED[n]
    assert policy.threshold == threshold
    assert success_probability_exact(policy) == p
    assert brute_force_success(n, policy.threshold) == p
    # No other threshold does strictly better.
    assert all(brute_force_success(n, r) <= p for r in range(1, n + 1))


def test_success_probability_float_agrees_with_exact():
    for n in (1, 2, 3, 5, 10, 40, 100):
        policy = optimal_policy(n)
        exact = success_probability_exact(policy)
        assert policy.p_sp == pytest.approx(float(exact), abs=1e-12)


# (n, threshold, p_sp), where p_sp is the float phi(threshold) summed outside
# the table, one term 1.0 / j at a time: the table's own sum must match it
# bit for bit.  n = 73757 is the float test's closest row.
PINNED_POLICIES = [
    (1, 1, 1.0), (2, 1, 0.5), (3, 2, 0.5), (10, 4, 0.3986904761904761),
    (100, 38, 0.3710427787126434), (1000, 369, 0.36819561720170474),
    (73757, 27135, 0.3678837263098), (100000, 36789, 0.3678826017905626),
]


@pytest.mark.parametrize("n,threshold,p_sp", PINNED_POLICIES)
def test_policy_is_the_last_table_row(n, threshold, p_sp):
    policy = optimal_policy(n)
    assert policy == (n, threshold, p_sp)
    assert policy == SecretaryPolicy(*list(policy_table(n))[-1])


def downward_tail_threshold(n):
    """Smallest r >= 2 with sum_{j=r}^{n-1} 1/j <= 1, summed from j = n-1 down."""
    r, tail = n, 0.0
    while r > 2 and tail + 1.0 / (r - 1) <= 1.0:
        r -= 1
        tail += 1.0 / r
    return r


@pytest.mark.parametrize("n", [1000, 10**4, 73757, 10**5])
def test_thresholds_equal_downward_tail_sum_search(n):
    assert optimal_policy(n).threshold == downward_tail_threshold(n)


def test_asymptotics_at_ten_thousand():
    policy = optimal_policy(10**4)
    inv_e = 1.0 / math.e
    assert abs(policy.p_sp - inv_e) < 0.01
    assert abs(policy.threshold / policy.n - inv_e) < 0.01


def test_table_monotone_and_bounded_below():
    prev = None
    for n, threshold, p in policy_table(10**4):
        if n >= 2:
            assert p <= prev + 1e-12
            assert p > 1.0 / math.e
        if n <= 128:
            exact = success_probability_exact(SecretaryPolicy(n, threshold, p))
            assert abs(p - float(exact)) <= 1e-12
        prev = p


def rational_argmax_threshold(n):
    """Optimal threshold by exact rational argmax of phi, ties to the smaller r."""
    tails = [Fraction(0)] * (n + 2)
    for r in range(n, 1, -1):
        tails[r] = tails[r + 1] + Fraction(1, r - 1)
    phis = [Fraction(1, n)] + [Fraction(r - 1, n) * tails[r] for r in range(2, n + 1)]
    return max(range(n), key=lambda i: (phis[i], -i)) + 1


def test_thresholds_equal_rational_argmax_up_to_256():
    expected = [rational_argmax_threshold(n) for n in range(1, 257)]
    assert [optimal_policy(n).threshold for n in range(1, 257)] == expected
    assert [(n, r) for n, r, _ in policy_table(256)] == list(enumerate(expected, 1))


def test_bool_horizon_is_rejected():
    with pytest.raises(InvalidHorizon):
        optimal_policy(True)
    with pytest.raises(InvalidHorizon):
        list(policy_table(True))


def test_non_integer_table_horizon_is_rejected():
    with pytest.raises(InvalidHorizon):
        list(policy_table(2.5))


def test_invalid_horizon():
    with pytest.raises(InvalidHorizon, match=r"^horizon must be a positive integer, got 0$"):
        optimal_policy(0)
    with pytest.raises(InvalidHorizon, match=r"got -3$"):
        optimal_policy(-3)


class TestSecPr:
    def test_spec_prefixes(self):
        policy = optimal_policy(3)
        assert policy.threshold == 2
        assert secpr(policy, (0.2, 0.9)) is True
        assert secpr(policy, (0.9, 0.2)) is False

    def test_observation_phase_never_selects(self):
        policy = optimal_policy(5)
        assert policy.threshold == 3
        assert secpr(policy, (0.9,)) is False
        assert secpr(policy, (0.1, 0.9)) is False

    def test_does_not_fire_after_earlier_record(self):
        policy = optimal_policy(4)
        assert policy.threshold == 2
        # Index 2 is a record past the threshold, so the rule stops there.
        assert secpr(policy, (0.1, 0.5)) is True
        assert secpr(policy, (0.1, 0.5, 0.7)) is False

    def test_horizon_one_selects_first(self):
        assert secpr(optimal_policy(1), (0.42,)) is True

    def test_duplicate_scores_rejected(self):
        with pytest.raises(DuplicateScore):
            secpr(optimal_policy(3), (0.5, 0.5))

    def test_prefix_length_bounds(self):
        with pytest.raises(InvalidHorizon):
            secpr(optimal_policy(2), (0.1, 0.2, 0.3))

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8,
                    unique=True),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=300)
    def test_fires_at_most_once_and_matches_oracle(self, scores, n):
        if len(scores) > n:
            scores = scores[:n]
        policy = optimal_policy(n)
        firing = [k for k in range(1, len(scores) + 1)
                  if secpr(policy, scores[:k])]
        assert len(firing) <= 1
        j = simulate_threshold_rule(scores, policy.threshold)
        expected = [] if j is None or j >= len(scores) else [j + 1]
        assert firing == expected
