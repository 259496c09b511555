"""Adversarial fixtures: pool algorithms and source families with known behavior.

Three families, each exposing enough structure for exact verification:

* a two-region pool algorithm whose final selection encodes, via a
  permutation-valued map on the high region, the order of all earlier
  selections ("thm3-good-pool" in the CLI);
* a chain utility over a small symbol alphabet that forces one specific
  output set per response pattern ("thm6-chain");
* a bit-indexed hypothesis class with a pool learner that identifies the
  target hypothesis with exactly one label query per bit ("ex1-hypotheses").
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DiscreteMarginal,
    Element,
    EmulationError,
    History,
    IntervalMarginal,
    LabeledPair,
    PoolAlgorithm,
    RunRecord,
    SourceDistribution,
    run_pool,
)


class InfeasiblePool(EmulationError):
    """Neither region of a two-region pool holds enough elements."""


class InvalidRegime(ValueError):
    """Chain-fixture parameters outside the supported regime."""


class InvalidShape(ValueError):
    """Hypothesis-class parameters are inconsistent."""


class IncompletePool(EmulationError):
    """The bit-identification learner needs an element missing from the pool."""


# ---------------------------------------------------------------------------
# Permutation coding on the unit interval
# ---------------------------------------------------------------------------

def permutation_from_unit(u: float, size: int) -> tuple[int, ...]:
    """Decode u in (0, 1] to a permutation of range(size).

    Uses the factorial-base digits of u as a Lehmer code, so a uniform u maps
    to a uniform permutation (exactly in the real-number idealization, to
    within one part in 2**53 in floats -- far finer than any test bins).
    Deterministic: equal inputs give equal permutations.
    """
    if size < 1:
        raise ValueError("size must be positive")
    frac = u if u < 1.0 else math.nextafter(1.0, 0.0)
    if not 0.0 <= frac < 1.0:
        raise ValueError(f"u={u} outside (0, 1]")
    available = list(range(size))
    perm = []
    for radix in range(size, 1, -1):
        frac *= radix
        digit = int(frac)
        if digit >= radix:  # guard against float roundup at cell edges
            digit = radix - 1
        frac -= digit
        perm.append(available.pop(digit))
    perm.append(available.pop())
    return tuple(perm)


def unit_from_permutation(perm: Sequence[int]) -> float:
    """Midpoint of the unit-interval cell that decodes to ``perm``.

    Inverse of :func:`permutation_from_unit` up to cell resolution; used to
    enumerate the encoded permutations exactly.
    """
    size = len(perm)
    available = list(range(size))
    value = Fraction(0)
    scale = Fraction(1)
    for radix in range(size, 1, -1):
        digit = available.index(perm[size - radix])
        available.pop(digit)
        scale /= radix
        value += digit * scale
    return float(value + scale / 2)


# ---------------------------------------------------------------------------
# Two-region permutation-coded pool algorithm
# ---------------------------------------------------------------------------

# Above every low element and below every high one in (base, tiebreak) order.
_LOW_TOP = (1.0, math.inf)


def region_of(base: float) -> int:
    """0 for the unit interval, 1 for the high interval (1, 2]."""
    return 0 if base <= 1.0 else 1


def two_region_marginal(m: int, response_one=0.0) -> SourceDistribution:
    """Marginal putting mass 1 - 1/m uniformly on [0, 1] and 1/m on (1, 2].

    With pools of size m this makes "exactly one high element" occur with
    probability m * (1/m) * (1 - 1/m)^(m-1) >= 1/e^2.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    return SourceDistribution(
        IntervalMarginal(((0.0, 1.0, 1.0 - 1.0 / m), (1.0, 2.0, 1.0 / m))),
        response_one, atomless=True)


class CodedPoolAlgorithm(PoolAlgorithm):
    """Pool algorithm whose last selection is determined by all earlier ones.

    On a pool with exactly one high element x_hi, the fractional part of x_hi
    decodes to a permutation sigma of the sorted low elements.  Rounds
    1..q-1 select the lows at sorted positions sigma(1)..sigma(q-1); the final
    round selects x_hi if every revealed response was 0 and the low at
    sigma(q) otherwise.  On any other pool it selects the q smallest elements
    of whichever region holds at least q, preferring the low region, in
    ascending order.
    """

    def __init__(self, m: int, q: int):
        if m < 2:
            raise ValueError("m must be at least 2")
        if q > m:
            raise ValueError(f"budget q={q} exceeds pool size m={m}")
        self.m = m
        self.q = q

    def select_next(self, elements: Sequence[Element], history: History,
                    selected: frozenset[int]) -> int:
        q = self.q
        # Elements order by (base, tiebreak), so one sort ranks both regions
        # and the lows (base <= 1.0) come first.
        order = sorted(range(len(elements)), key=elements.__getitem__)
        n_low = bisect_right(order, _LOW_TOP, key=elements.__getitem__)
        n_high = len(order) - n_low
        if n_high == 1:
            hi = order[n_low]
            sigma = permutation_from_unit(elements[hi].base - 1.0, n_low)
            t = len(history) + 1
            if t < q:
                return order[sigma[t - 1]]
            if all(pair.response == 0 for pair in history):
                return hi
            if q <= n_low:
                return order[sigma[q - 1]]
            return hi  # q == m: every low already taken, the high is forced
        if n_low >= q:
            feasible = order[:n_low]
        elif n_high >= q:
            feasible = order[n_low:]
        else:
            raise InfeasiblePool(
                f"neither region holds q={q} elements "
                f"(low={n_low}, high={n_high})")
        for idx in feasible:
            if idx not in selected:
                return idx
        raise InfeasiblePool("no unselected element left in the feasible region")


# ---------------------------------------------------------------------------
# Chain utility fixture
# ---------------------------------------------------------------------------

class ChainUtility:
    """Utility whose argmax walks a fixed symbol chain, branching on responses.

    Symbols are the integers 1..n.  With a history of length L whose revealed
    responses are all 0 (or empty), symbol L+1 scores highest; once any
    response 1 has been revealed, symbol q+L scores highest.  All other
    symbols score in strictly decreasing symbol order, so the argmax is unique
    whenever the favored symbol is present and deterministic regardless.

    Consequence, for a pool containing symbols 1..2q-1: under an all-zero
    response law the selections are 1..q; if the first 1-response arrives at
    round t, the remaining selections are q+t..2q-1.
    """

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q

    def __call__(self, element: Element, history: History) -> float:
        length = len(history)
        if all(pair.response == 0 for pair in history):
            favored = length + 1
        else:
            favored = self.q + length
        symbol = int(element.base)
        if symbol == favored:
            return float(self.n + 1)
        return float(self.n - symbol)


@dataclass(frozen=True)
class ChainFixture:
    """Chain utility plus its response-law family over a uniform alphabet.

    ``dists[0]`` responds 0 everywhere; ``dists[t]`` responds 1 exactly on
    symbol t.  ``expected_output(t)`` is the symbol set the greedy pool
    algorithm must select under ``dists[t]`` on any pool containing symbols
    1..2q-1.
    """

    utility: ChainUtility
    dists: tuple[SourceDistribution, ...]
    m: int
    q: int
    n: int

    def expected_output(self, t: int) -> frozenset[int]:
        if not 0 <= t <= self.q:
            raise ValueError(f"t={t} outside [0, {self.q}]")
        if t == 0:
            return frozenset(range(1, self.q + 1))
        return frozenset(range(1, t + 1)) | frozenset(range(self.q + t, 2 * self.q))


def chain_fixture(m: int, q: int) -> ChainFixture:
    """Build the chain fixture with alphabet size n = floor(m / (2 ln 2q)).

    Requires m >= 8 and q <= m/2, and n >= q so that every response law in
    the family targets an existing symbol.  Verifying the forced output sets
    for t >= 1 additionally needs n >= 2q - 1; pick m accordingly.
    """
    if m < 8 or 2 * q > m:
        raise InvalidRegime(f"need m >= 8 and q <= m/2, got m={m}, q={q}")
    n = int(m / (2.0 * math.log(2.0 * q)))
    if n < q:
        raise InvalidRegime(
            f"alphabet size n={n} is smaller than the budget q={q}; "
            "increase m")
    utility = ChainUtility(n, q)
    symbols = tuple(float(i) for i in range(1, n + 1))
    probs = (1.0 / n,) * n
    marginal = DiscreteMarginal(symbols, probs)
    dists = tuple(
        SourceDistribution(marginal, ({float(t): 1.0} if t else 0.0), atomless=True)
        for t in range(q + 1))
    return ChainFixture(utility, dists, m, q, n)


# ---------------------------------------------------------------------------
# Bit-indexed hypothesis class and its pool learner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisClass:
    """2^q hypotheses over chain elements indexed by (level k, window j).

    Element (k, j) exists for k in 1..q and j in 0..2^(min(k, T)-1)-1, plus
    inert filler symbols to pad the domain to n elements.  Hypothesis i labels
    (k, j) with 1 iff the relevant bit window of i equals j:

    * k <= T: the k least significant bits of i (so j must also have bit k-1
      clear for a match, since j < 2^(k-1));
    * k > T:  the T consecutive bits of i starting at bit k-T.

    Fillers are labeled 0 by every hypothesis.  Any two distinct hypotheses
    disagree somewhere, and learning one bit per query identifies i exactly.
    """

    q: int
    T: int
    n: int
    kj_to_base: dict[tuple[int, int], float]
    base_to_kj: dict[float, tuple[int, int]]

    def evaluate(self, i: int, base: float) -> int:
        """Label of element ``base`` under hypothesis ``i``."""
        kj = self.base_to_kj.get(base)
        if kj is None:
            return 0
        k, j = kj
        if k <= self.T:
            return int(i % (1 << k) == j)
        return int((i >> (k - self.T)) % (1 << self.T) == j)

    def source(self, target: int) -> SourceDistribution:
        """Uniform marginal over the domain, responses labeled by hypothesis ``target``."""
        symbols = tuple(float(s) for s in range(self.n))
        probs = (1.0 / self.n,) * self.n
        return SourceDistribution(DiscreteMarginal(symbols, probs),
                                  lambda base: float(self.evaluate(target, base)),
                                  atomless=False)

    def complete_pool(self, target: int) -> list[LabeledPair]:
        """One sealed pair per domain element, labeled by hypothesis ``target``."""
        return [LabeledPair(Element(float(s), 0.0), self.evaluate(target, float(s)))
                for s in range(self.n)]


def hypothesis_class(q: int, T: int, n: int) -> HypothesisClass:
    """Materialize the class; requires 1 <= T <= q and n >= q * 2^T / 2."""
    if not 1 <= T <= q:
        raise InvalidShape(f"need 1 <= T <= q, got T={T}, q={q}")
    if 2 * n < q * (1 << T):
        raise InvalidShape(f"need n >= q * 2^T / 2 = {q * (1 << T) / 2}, got n={n}")
    kj_to_base: dict[tuple[int, int], float] = {}
    base = 0
    for k in range(1, q + 1):
        for j in range(1 << (min(k, T) - 1)):
            kj_to_base[(k, j)] = float(base)
            base += 1
    if base > n:
        raise InvalidShape(f"domain size n={n} cannot hold {base} chain elements")
    base_to_kj = {v: k for k, v in kj_to_base.items()}
    return HypothesisClass(q, T, n, kj_to_base, base_to_kj)


class BitIdentificationPool(PoolAlgorithm):
    """Pool learner that uncovers one bit of the target index per round.

    Round t queries element (t, j) where j encodes the bits identified so
    far: for t <= T the full known suffix, beyond that the known window
    shifted down by one.  A 1-label means the next bit is 0.  After q rounds
    the target index is determined; decode it with :func:`identify_bits`.
    """

    def __init__(self, hclass: HypothesisClass, m: int):
        self.hclass = hclass
        self.m = m
        self.q = hclass.q

    def _query_target(self, history: History) -> tuple[int, int]:
        t = len(history) + 1
        window = _window_after(self.hclass.T, history)
        j = window if t <= self.hclass.T else window >> 1
        return t, j

    def select_next(self, elements: Sequence[Element], history: History,
                    selected: frozenset[int]) -> int:
        t, j = self._query_target(history)
        base = self.hclass.kj_to_base.get((t, j))
        if base is None:
            raise IncompletePool(f"no element with level {t} window {j} exists")
        for idx, element in enumerate(elements):
            if idx not in selected and element.base == base:
                return idx
        raise IncompletePool(f"pool lacks the element for level {t} window {j}")


def _window_after(T: int, history: History) -> int:
    """The learner's known bit window after the given query history."""
    window = 0
    for t, pair in enumerate(history, start=1):
        bit = 0 if pair.response == 1 else 1
        if t <= T:
            window |= bit << (t - 1)
        else:
            window = (window >> 1) | (bit << (T - 1))
    return window


def identify_bits(hclass: HypothesisClass, history: History) -> int:
    """Decode the target hypothesis index from a full learner history."""
    index = 0
    for t, pair in enumerate(history, start=1):
        bit = 0 if pair.response == 1 else 1
        index |= bit << (t - 1)
    return index


def pool_bit_learner(hclass: HypothesisClass, pool: Sequence[LabeledPair],
                     q: int) -> tuple[int, RunRecord]:
    """Run the bit-identification learner on a pool; return (index, record).

    The pool must contain every element the query path needs (a pool holding
    all of the domain always suffices); otherwise :class:`IncompletePool` is
    raised, which corresponds to the learner's failure event.
    """
    if q != hclass.q:
        raise InvalidShape(f"learner identifies exactly q={hclass.q} bits, got q={q}")
    record = run_pool(BitIdentificationPool(hclass, len(pool)), pool, q)
    return identify_bits(hclass, record.output), record
