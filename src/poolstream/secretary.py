"""Exact solution of the classical secretary problem.

The optimal stopping rule for picking the maximum of ``n`` sequentially
revealed distinct values in uniformly random order: observe the first
``threshold - 1`` values, then take the first value exceeding everything seen
so far.  Its success probability is

    phi(1) = 1/n,
    phi(r) = (r-1)/n * sum_{j=r}^{n} 1/(j-1)   for r >= 2,

maximized at the unique unimodal optimum (ties broken toward smaller r).
``policy_table`` finds it for every horizon n <= 10^5 in one upward pass.
Both the threshold and the probability converge to 1/e as n grows.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple


class InvalidHorizon(ValueError):
    """Horizon must be a positive integer."""


class DuplicateScore(ValueError):
    """The no-ties assumption was violated by an observed score sequence."""


class SecretaryPolicy(NamedTuple):
    """Observe candidates 1..threshold-1, then select the first running maximum."""

    n: int
    threshold: int


def optimal_policy(n: int) -> SecretaryPolicy:
    """The exactly optimal threshold policy for horizon ``n``: policy_table's last row."""
    if type(n) is not int or n < 1:
        raise InvalidHorizon(f"horizon must be a positive integer, got {n!r}")
    for _, threshold, _ in policy_table(n):
        pass
    return SecretaryPolicy(n, threshold)


def success_probability(policy: SecretaryPolicy) -> float:
    """phi(threshold) as a float."""
    _validate_policy(policy)
    n, r = policy.n, policy.threshold
    if r == 1:
        return 1.0 / n
    h_n = h_r2 = 0.0  # H_{n-1}, H_{r-2}
    for j in range(1, n):
        if j == r - 1:
            h_r2 = h_n
        h_n += 1.0 / j
    return (r - 1) / n * (h_n - h_r2)


def _validate_policy(policy: SecretaryPolicy) -> None:
    if policy.n < 1 or not 1 <= policy.threshold <= policy.n:
        raise InvalidHorizon(f"invalid policy {policy}")


def policy_table(n_max: int):
    """Yield (n, threshold, success probability) for n = 1..n_max in one pass.

    phi(r+1) - phi(r) has the sign of H_{n-1} - H_{r-1} - 1, so the optimum
    is the smallest r with H_{n-1} - H_{r-1} <= 1 (r = 1 when n = 1).  Three
    running sums, H_{n-1}, H_{r-1} and H_{r-2}, each summed upward from 0.0
    one term 1.0 / j at a time, are all the search and phi read.
    The float test decides exactly: consecutive unit fractions sum to an
    integer only as 1/1 (n = 2, where ``<=`` keeps the smaller tie r = 1),
    and for n <= 10^5 the deciding sums stay 5e-11 or more from 1 (closest
    at n = 73757, r = 27134), against rounding below 2e-13.
    Each row's search may start from the last row's r: the tail sum grows
    with n, so r(n) <= r(n+1), and rounded subtraction is monotone in each
    argument, so the float test is too.
    """
    if type(n_max) is not int or n_max < 1:
        raise InvalidHorizon(f"n_max must be a positive integer, got {n_max!r}")
    h_n = h_r1 = h_r2 = 0.0  # H_{n-1}, H_{r-1}, H_{r-2}
    r = 1
    for n in range(1, n_max + 1):
        while h_n - h_r1 > 1.0:
            h_r2 = h_r1
            h_r1 += 1.0 / r
            r += 1
        yield n, r, 1.0 / n if r == 1 else (r - 1) / n * (h_n - h_r2)
        h_n += 1.0 / n


@lru_cache(maxsize=None)
def cached_policy(n: int) -> SecretaryPolicy:
    return optimal_policy(n)


def expected_costs(m: int, q: int) -> tuple[float, float]:
    """Expected (n_sel, n_iter) of q secretary rounds emulating a size-m pool.

    Round i (horizon h = m-i+1) repeats i.i.d. attempts that succeed with
    p_sp(h); one reveals unless its best key is among the first r_h - 1, so by
    Wald's identity the round reveals (1 - (r_h - 1)/h) / p_sp(h).  An attempt
    observes h in-domain elements, and under a history-independent utility
    E[1/domain mass] = m/h, so the round observes m / p_sp(h) elements.
    """
    n_sel = n_iter = 0.0
    for h in range(m, m - q, -1):
        policy = cached_policy(h)
        p = success_probability(policy)
        n_sel += (1.0 - (policy.threshold - 1) / h) / p
        n_iter += m / p
    return n_sel, n_iter


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
