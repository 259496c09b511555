"""Domain types, source distributions, and the pool/stream interaction protocols.

An interactive run selects ``q`` elements and reveals their responses.  In the
pool protocol the algorithm sees all ``m`` candidate elements up front and picks
one index per round.  In the stream protocol elements arrive one at a time from
an i.i.d. source and must be selected (or passed) immediately.  Both protocols
are driven here, with uniform accounting of

* ``n_sel``  -- responses revealed, including selections later discarded,
* ``n_iter`` -- elements observed, including unselected ones.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

import numpy as np

DEFAULT_MAX_ITER = 10**8

_PROB_TOL = 1e-12


class EmulationError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(EmulationError):
    """A protocol rule was broken: a pool algorithm returned an index that is
    not an int, out of range or already selected, or an emulator revealed an
    element other than the one just observed (an earlier one, or the same one
    twice) or returned the wrong number of pairs."""


class AtomlessDistribution(EmulationError):
    """An emulator requiring (or forbidding) atoms got the wrong source kind."""


class TieDetected(EmulationError):
    """Two candidate elements scored exactly equal under a utility function."""


class IterationCapExceeded(EmulationError):
    """A stream run observed more elements than its configured cap.

    Signals an impractical configuration rather than a correctness bug.  The
    counters and the reveal log accumulated so far are attached.
    """

    def __init__(self, max_iter: int, n_iter: int, n_sel: int,
                 revealed: tuple = ()):
        super().__init__(
            f"stream run exceeded max_iter={max_iter} "
            f"(n_iter={n_iter}, n_sel={n_sel})")
        self.max_iter = max_iter
        self.n_iter = n_iter
        self.n_sel = n_sel
        self.revealed = revealed


class Element(NamedTuple):
    """A domain point: a base coordinate plus an atomless tie-break coordinate.

    ``base`` is either a symbol of a finite alphabet (stored as a number) or a
    real coordinate.  ``tiebreak`` lies in [0, 1) and is drawn uniformly when
    the source is atomless, so that two independently sampled elements are
    distinct with probability 1 even over a discrete alphabet.  Elements
    compare equal iff both coordinates are bitwise equal; bases are sampled,
    never computed, so exact comparison is well defined.
    """

    base: float
    tiebreak: float


# Builds a pair, element or record without the namedtuple's own ``__new__``,
# a Python function that costs about as much again.
_new = tuple.__new__


class LabeledPair(NamedTuple):
    """An element together with its response.

    Inside a sealed pool the response holds the pre-sampled truth and must
    only be read through the pool protocol; in a history it has been
    revealed.  A stream hands out bare elements: ``StreamSource.reveal``
    returns the response of the element just observed, and no other.
    """

    element: Element
    response: int


History = Sequence[LabeledPair]

ResponseLawLike = Union[float, Mapping, Callable[[float], float]]


@dataclass(frozen=True)
class DiscreteMarginal:
    """Finite-support base marginal: symbols with a probability vector."""

    symbols: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.symbols) != len(self.probs) or not self.symbols:
            raise ValueError("symbols and probs must be equal-length and non-empty")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if abs(sum(self.probs) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols")


@dataclass(frozen=True)
class IntervalMarginal:
    """Piecewise-uniform base marginal over disjoint real intervals."""

    pieces: tuple[tuple[float, float, float], ...]  # (lo, hi, mass)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("at least one piece required")
        for lo, hi, mass in self.pieces:
            if not lo < hi:
                raise ValueError(f"empty piece [{lo}, {hi}]")
            if mass < 0:
                raise ValueError("negative mass")
        if abs(sum(p[2] for p in self.pieces) - 1.0) > _PROB_TOL:
            raise ValueError("piece masses must sum to 1")


@dataclass(frozen=True)
class SourceDistribution:
    """Joint law of (element, response) pairs drawn i.i.d. by a source.

    ``response_one`` gives P[response = 1 | base] as a constant, a mapping from
    base symbol (missing keys mean 0), or a callable.  ``atomless`` controls
    the tie-break augmentation: when set, no single element value has positive
    probability.
    """

    marginal: DiscreteMarginal | IntervalMarginal
    response_one: ResponseLawLike = 0.0
    atomless: bool = False

    def __post_init__(self):
        if isinstance(self.response_one, (int, float)):
            p = float(self.response_one)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"constant response probability {p} outside [0, 1]")

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.marginal, DiscreteMarginal)

    @property
    def constant_response(self) -> float | None:
        """The response probability if it does not depend on the base, else None."""
        if isinstance(self.response_one, (int, float)):
            return float(self.response_one)
        return None

    @cached_property
    def sampling_table(self) -> tuple:
        """``(symbols, cum, pieces)`` for drawing bases from uniforms.

        ``cum`` lists the cumulative masses.  For a discrete marginal
        ``symbols`` is its own tuple of symbols and ``pieces`` is None.  For
        an interval marginal ``symbols`` is None and ``pieces`` holds, per
        piece, ``(lo, start, mass, hi - lo)``, where ``start`` is
        ``cum - mass``.
        """
        marginal = self.marginal
        if isinstance(marginal, DiscreteMarginal):
            return marginal.symbols, np.cumsum(marginal.probs).tolist(), None
        cum = np.cumsum([mass for _, _, mass in marginal.pieces]).tolist()
        return None, cum, [(lo, c - mass, mass, hi - lo)
                           for (lo, hi, mass), c in zip(marginal.pieces, cum)]

    @cached_property
    def response_table(self) -> Callable[[float], float]:
        """P[response = 1 | base] as a function of the base, with the law's
        kind tested once."""
        law = self.response_one
        const = self.constant_response
        if const is not None:
            def prob_one(base):
                return const
        elif isinstance(law, Mapping):
            get = law.get

            def prob_one(base):
                return float(get(base, 0.0))
        else:
            def prob_one(base):
                return float(law(base))
        return prob_one

    @cached_property
    def pair_table(self) -> tuple:
        """``(width, top)``: the layout of a stream pair.

        Every pair takes ``width`` consecutive uniforms: one for the base,
        one for the tie-break if the source is atomless, and one for the
        response unless the law is the constant 0 or 1.  ``top`` is the
        index of the last entry of :attr:`sampling_table` with positive
        mass: a uniform at or beyond the last cumulative mass (float sums of
        the masses can fall short of 1) selects it.
        """
        masses = (self.marginal.probs if self.is_discrete
                  else [mass for _, _, mass in self.marginal.pieces])
        top = max(i for i, mass in enumerate(masses) if mass > 0)
        width = 1 + self.atomless + (self.constant_response not in (0.0, 1.0))
        return width, top

    def prob_one(self, base: float) -> float:
        """P[response = 1 | base]."""
        return self.response_table(base)


def uniform_symbols(k: int, *, atomless: bool = False,
                    response_one: ResponseLawLike = 0.0) -> SourceDistribution:
    """Uniform marginal over the integer symbols 0..k-1."""
    probs = (1.0 / k,) * k
    return SourceDistribution(DiscreteMarginal(tuple(float(i) for i in range(k)), probs),
                              response_one, atomless)


def uniform_interval(lo: float = 0.0, hi: float = 1.0, *,
                     response_one: ResponseLawLike = 0.0) -> SourceDistribution:
    """Uniform marginal on a single real interval (always atomless)."""
    return SourceDistribution(IntervalMarginal(((lo, hi, 1.0),)), response_one,
                              atomless=True)


def point_mass(symbol: float, *, response_one: ResponseLawLike = 0.0) -> SourceDistribution:
    """Degenerate marginal on one symbol (useful for recurrence tests)."""
    return SourceDistribution(DiscreteMarginal((float(symbol),), (1.0,)),
                              response_one, atomless=False)


# numpy's SeedSequence hash (bit_generator.pyx); NEP 19 keeps it stable.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: Trials whose PCG64 seed words are derived together.  It divides 2**32, so
#: all trials of an aligned block split into the same number of 32-bit words.
_TRIAL_BLOCK = 1024


def _int_words(n: int) -> list[int]:
    """``n >= 0`` as little-endian 32-bit words, as SeedSequence splits entropy."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=8)
def _trial_seed_words(seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of trials ``block*1024 ..`` ``block*1024 + 1023``.

    Row ``i`` equals ``SeedSequence([seed, block*1024 + i]).generate_state(4,
    np.uint64)``: the SeedSequence entropy mix and output hash, run on uint32
    arrays over the whole block.  Within an aligned block only the trial's low
    word varies, and it never carries into the high words.
    """
    first = block * _TRIAL_BLOCK
    trial_words = _int_words(first)

    def column(word: int) -> np.ndarray:
        return np.full(_TRIAL_BLOCK, word, dtype=np.uint32)

    low = np.uint32(trial_words[0]) + np.arange(_TRIAL_BLOCK, dtype=np.uint32)
    entropy = ([column(w) for w in _int_words(seed)] + [low]
               + [column(w) for w in trial_words[1:]])

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else column(0))
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = np.empty((_TRIAL_BLOCK, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False  # shared by every caller of the cache
    return words


@lru_cache(maxsize=None)
def _trial_seed_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 precomputed seed words.

    PCG64 accepts only ``ISeedSequence`` instances in place of a SeedSequence.
    The class is made on first use because defining it imports numpy.random,
    which ``import poolstream`` does not otherwise need.
    """
    from numpy.random.bit_generator import ISeedSequence

    class TrialSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("a trial seed only holds PCG64's four uint64 words")
            return self._words

        def __reduce__(self):
            return _trial_seed, (self._words,)

    return TrialSeed


def _trial_seed(words: np.ndarray):
    return _trial_seed_type()(words)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Derive the independent RNG sub-stream for one trial.

    Streams are keyed by (seed, trial) so trials are order-independent and may
    run concurrently.  The stream equals numpy's
    ``default_rng(SeedSequence([seed, trial]))``; the seed words are derived
    for 1024 trials at a time, which is most of what that call costs.
    """
    seed, trial = int(seed), int(trial)
    if seed < 0 or trial < 0:
        raise ValueError("expected non-negative integer")
    block, i = divmod(trial, _TRIAL_BLOCK)
    words = _trial_seed_words(seed, block)[i]
    return np.random.Generator(np.random.PCG64(_trial_seed(words)))


#: First and largest uniform block a :class:`StreamSource` draws.
_FIRST_BLOCK, _MAX_BLOCK = 64, 4096


class StreamSource:
    """Lazily samples stream elements from a source law with cap enforcement.

    :meth:`next` hands out bare elements; their responses stay undrawn.  The
    single point where a response becomes visible is :meth:`reveal`, which
    increments ``n_sel`` and unseals only the element the latest
    :meth:`next` returned, and that once: a stream algorithm can select an
    element only immediately after observing it.

    Every pair uses the same number of consecutive uniforms (see
    :attr:`SourceDistribution.pair_table`); the response's uniform comes
    last.  Uniforms are drawn in blocks that start at 64 and double up to
    4096, so a short run draws few, and are kept as a Python list.
    :meth:`next` decodes only the element it hands out, and :meth:`reveal`
    decodes the response from that pair's last uniform, so the response
    law runs only for revealed elements.  PCG64 doubles concatenate across
    calls, so the uniforms are the generator's own sequence whatever the
    block sizes; the generator's state runs ahead of the uniforms used.

    ``round_attempts`` is where an emulator that works in rounds leaves its
    per-round attempt counts (only :class:`~poolstream.emulators.SecretaryEmulator`
    does); :func:`run_stream` copies it into the :class:`RunRecord`.
    """

    __slots__ = ("dist", "max_iter", "n_iter", "n_sel", "round_attempts", "_rng",
                 "_block", "_uniforms", "_pos", "_width", "_top", "_atomless",
                 "_symbols", "_cum", "_pieces", "_prob_one", "_last", "_revealed")

    def __init__(self, dist: SourceDistribution, rng: np.random.Generator,
                 max_iter: int = DEFAULT_MAX_ITER):
        self.dist = dist
        self.max_iter = max_iter
        self.n_iter = 0
        self.n_sel = 0
        self.round_attempts: tuple[int, ...] | None = None
        self._rng = rng
        self._block = _FIRST_BLOCK
        self._uniforms: list[float] = []
        self._pos = 0  # where the next pair's uniforms start
        self._width, self._top = dist.pair_table
        self._atomless = dist.atomless
        self._symbols, self._cum, self._pieces = dist.sampling_table
        self._prob_one = dist.response_table
        self._last = None  # the element next() returned, until revealed
        self._revealed: list[LabeledPair] = []

    def next(self) -> Element:
        """Observe the next stream element, counting it toward ``n_iter``."""
        if self.n_iter >= self.max_iter:
            raise IterationCapExceeded(self.max_iter, self.n_iter, self.n_sel,
                                       self.revealed)
        self.n_iter += 1
        pos = self._pos
        end = pos + self._width
        u = self._uniforms
        if end > len(u):
            # Keep the uniforms after the last whole pair of the old block.
            block = self._block
            self._block = min(2 * block, _MAX_BLOCK)
            self._uniforms = u = u[pos:] + self._rng.random(block).tolist()
            end -= pos
            pos = 0
        self._pos = end
        x = u[pos]
        # bisect_right over cum[:top] is bisect_right over cum, clamped to
        # top; with one entry of positive mass there is nothing to search.
        top = self._top
        i = bisect_right(self._cum, x, 0, top) if top else 0
        pieces = self._pieces
        if pieces is None:
            base = self._symbols[i]
        else:
            lo, start, mass, span = pieces[i]
            # lo + min(max(frac, 0.0), 1.0) * span, nan and -0.0 included,
            # without the cost of two builtin calls.
            frac = (x - start) / mass
            base = lo + (0.0 if frac < 0.0 else 1.0 if frac > 1.0 else frac) * span
        tiebreak = u[pos + 1] if self._atomless else 0.0
        self._last = element = _new(Element, (base, tiebreak))
        return element

    def reveal(self, element: Element) -> int:
        """Unseal the just observed element's response, counting it toward ``n_sel``.

        Only the element the latest :meth:`next` returned may be revealed,
        and only once.  Elements are told apart by identity: under a source
        with atoms, two draws can be equal.
        """
        if element is not self._last or element is None:
            done = any(pair.element is element for pair in self._revealed)
            raise ContractViolation(f"element {element!r} " + (
                "revealed twice" if done else "is not the element just observed"))
        self._last = None
        self.n_sel += 1
        # The pair's last uniform.  Under a constant 0 or 1 law the pair has
        # no response uniform, but any uniform in [0, 1) gives that constant.
        response = int(self._uniforms[self._pos - 1] < self._prob_one(element.base))
        self._revealed.append(_new(LabeledPair, (element, response)))
        return response

    @property
    def revealed(self) -> tuple[LabeledPair, ...]:
        return tuple(self._revealed)


def sample_pool(dist: SourceDistribution, m: int, rng: np.random.Generator) -> list[LabeledPair]:
    """Draw an i.i.d. pool of ``m`` pairs through a private :class:`StreamSource`."""
    source = StreamSource(dist, rng)
    for _ in range(m):
        source.reveal(source.next())
    return list(source.revealed)


class RunRecord(NamedTuple):
    """One run's output plus its cost counters.

    ``output`` keeps selection order; compare as an unordered multiset when
    order is immaterial.  Invariants: ``len(output) == q``, every response is
    revealed, and ``n_iter >= n_sel >= q``.  ``round_attempts`` is the run's
    ``StreamSource.round_attempts``: per-round attempt counts from the
    secretary-based emulator, None elsewhere.
    """

    output: tuple[LabeledPair, ...]
    n_sel: int
    n_iter: int
    round_attempts: tuple[int, ...] | None = None


class PoolAlgorithm:
    """Behavioral contract for black-box pool algorithms.

    ``select_next`` must return the index of an unselected pool element given
    the element values, the revealed history, and the set of already-selected
    indices (the index set is passed explicitly because with atom-bearing
    sources duplicate values make selectability underivable from the history
    alone).  Implementations must be permutation invariant at the value level:
    shuffling the pool must not change the distribution of selected values.
    """

    m: int
    q: int

    def select_next(self, elements: Sequence[Element], history: History,
                    selected: frozenset[int]) -> int:
        raise NotImplementedError


class StreamEmulator:
    """Contract for stream algorithms: consume a source, return q revealed pairs."""

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        raise NotImplementedError


def _checked_select(alg: PoolAlgorithm, elements: Sequence[Element],
                    history: History, selected: set[int]) -> int:
    idx = alg.select_next(elements, history, frozenset(selected))
    # type(), not isinstance(): a bool is an int, and True would pick index 1.
    if type(idx) is not int or not 0 <= idx < len(elements):
        raise ContractViolation(
            f"selected index {idx!r} is not an int in range({len(elements)})")
    if idx in selected:
        raise ContractViolation(f"index {idx} selected twice")
    return idx


def interact_pool(alg: PoolAlgorithm, pool: Sequence[LabeledPair],
                  q: int) -> list[LabeledPair]:
    """Run the q-round pool interaction, revealing responses on selection."""
    elements = [p.element for p in pool]
    history: list[LabeledPair] = []
    selected: set[int] = set()
    for _ in range(q):
        idx = _checked_select(alg, elements, history, selected)
        selected.add(idx)
        history.append(pool[idx])
    return history


def run_pool(alg: PoolAlgorithm, pool: Sequence[LabeledPair], q: int) -> RunRecord:
    """Execute a pool algorithm on a sealed pool.

    The pool algorithm observes every element, so ``n_iter`` equals the pool
    size and ``n_sel`` equals the budget.
    """
    m = len(pool)
    if q > m:
        raise ValueError(f"budget q={q} exceeds pool size m={m}")
    if getattr(alg, "m", m) != m:
        raise ValueError(f"pool algorithm expects m={alg.m}, got pool of size {m}")
    history = interact_pool(alg, pool, q)
    return _new(RunRecord, (tuple(history), q, m, None))


def run_stream(emulator: StreamEmulator, dist: SourceDistribution, q: int,
               rng: np.random.Generator,
               max_iter: int = DEFAULT_MAX_ITER) -> RunRecord:
    """Drive a stream emulator against a lazily sampled i.i.d. source.

    Raises :class:`IterationCapExceeded` if the emulator would observe more
    than ``max_iter`` elements; the cap applies to the whole run.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    source = StreamSource(dist, rng, max_iter)
    output = emulator.run(source, q)
    if len(output) != q:
        raise ContractViolation(f"emulator returned {len(output)} pairs, expected {q}")
    return _new(RunRecord, (tuple(output), source.n_sel, source.n_iter,
                            source.round_attempts))
