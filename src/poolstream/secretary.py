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

from functools import lru_cache
from typing import NamedTuple


class InvalidHorizon(ValueError):
    """Horizon must be a positive integer."""


class SecretaryPolicy(NamedTuple):
    """Observe candidates 1..threshold-1, then select the first running maximum;
    this succeeds with probability ``p_sp`` = phi(threshold)."""

    n: int
    threshold: int
    p_sp: float


def optimal_policy(n: int) -> SecretaryPolicy:
    """The exactly optimal threshold policy for horizon ``n``: policy_table's last row."""
    for row in policy_table(n):
        pass
    return SecretaryPolicy(*row)


def policy_table(n_max: int):
    """Yield the plain tuple (n, threshold, p_sp) for n = 1..n_max in one pass.

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
        raise InvalidHorizon(f"horizon must be a positive integer, got {n_max!r}")
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
