"""Exact solution of the classical secretary problem.

The optimal stopping rule for picking the maximum of ``n`` sequentially
revealed distinct values in uniformly random order: observe the first
``threshold - 1`` values, then take the first value exceeding everything seen
so far.  Its success probability is

    phi(1) = 1/n,
    phi(r) = (r-1)/n * sum_{j=r}^{n} 1/(j-1)   for r >= 2,

maximized at the unique unimodal optimum (ties broken toward smaller r).
One upward float search over harmonic sums finds it, in one pass for a
whole table as the optimum never decreases in n; up to n = 10^5 it is
exact, as no sum it compares with 1 is within rounding of 1.
Both the threshold and the probability converge to 1/e as n grows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate


class InvalidHorizon(ValueError):
    """Horizon must be a positive integer."""


class DuplicateScore(ValueError):
    """The no-ties assumption was violated by an observed score sequence."""


@dataclass(frozen=True)
class SecretaryPolicy:
    """Observe candidates 1..threshold-1, then select the first running maximum."""

    n: int
    threshold: int


def optimal_policy(n: int) -> SecretaryPolicy:
    """The exactly optimal threshold policy for horizon ``n``."""
    if type(n) is not int or n < 1:
        raise InvalidHorizon(f"horizon must be a positive integer, got {n!r}")
    return SecretaryPolicy(n, _threshold(_harmonic_prefix(n), n))


def _threshold(harmonic: Sequence[float], n: int, r: int = 1) -> int:
    """The optimal threshold for horizon ``n``, searched upward from ``r``.

    phi is unimodal with increments of sign(T(r+1) - 1) where
    T(r) = H_{n-1} - H_{r-2}; the optimum is the smallest r with T(r+1) <= 1,
    i.e. with harmonic[n-1] - harmonic[r-1] <= 1 (r = 1 when n = 1).
    The float test decides exactly: consecutive unit fractions sum to an
    integer only as 1/1 (n = 2, where ``<=`` keeps the smaller tie r = 1),
    and for n <= 10^5 the deciding sums stay 5e-11 or more from 1 (closest
    at n = 73757, r = 27134), against rounding below 2e-13.
    Any start at or below the optimum of ``n`` is valid, such as the optimum
    of ``n - 1``: the tail sum grows with n, so r(n) <= r(n+1), and rounded
    subtraction is monotone in each argument, so the float test is too.
    """
    while harmonic[n - 1] - harmonic[r - 1] > 1.0:
        r += 1
    return r


def _phi(harmonic: Sequence[float], n: int, r: int) -> float:
    """phi(r) for horizon ``n`` as a float; ``harmonic`` reaches at least H_n."""
    if r == 1:
        return 1.0 / n
    return (r - 1) / n * (harmonic[n - 1] - harmonic[r - 2])


def success_probability(policy: SecretaryPolicy) -> float:
    """phi(threshold) as a float."""
    _validate_policy(policy)
    return _phi(_harmonic_prefix(policy.n), policy.n, policy.threshold)


def success_probability_exact(policy: SecretaryPolicy) -> Fraction:
    """phi(threshold) as an exact rational (intended for modest horizons)."""
    n, r = policy.n, policy.threshold
    _validate_policy(policy)
    if r == 1:
        return Fraction(1, n)
    tail = sum((Fraction(1, j - 1) for j in range(r, n + 1)), Fraction(0))
    return Fraction(r - 1, n) * tail


def _validate_policy(policy: SecretaryPolicy) -> None:
    if policy.n < 1 or not 1 <= policy.threshold <= policy.n:
        raise InvalidHorizon(f"invalid policy {policy}")


def _harmonic_prefix(n: int) -> list[float]:
    """harmonic[k] = H_k = sum_{j=1}^{k} 1/j, for k = 0..n."""
    return list(accumulate((1.0 / j for j in range(1, n + 1)), initial=0.0))


def policy_table(n_max: int):
    """Yield (n, threshold, success probability) for n = 1..n_max in one pass."""
    if n_max < 1:
        raise InvalidHorizon(f"n_max must be positive, got {n_max}")
    harmonic = _harmonic_prefix(n_max)
    r = 1
    for n in range(1, n_max + 1):
        r = _threshold(harmonic, n, r)
        yield n, r, _phi(harmonic, n, r)


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
