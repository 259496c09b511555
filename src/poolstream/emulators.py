"""Stream emulators for black-box pool algorithms, and the greedy utility pool.

Four emulation strategies with different cost profiles:

* :class:`WaitEmulator` fills a virtual pool from the stream prefix, then
  serves each pool decision by waiting for the chosen value to recur.  Exactly
  q reveals, but the wait is unbounded over the class of discrete sources.
* :class:`NowaitEmulator` selects the whole stream prefix and replays the pool
  algorithm offline.  Bounded iterations (m), but m reveals.
* :class:`RejectionEmulator` repeatedly redraws the unselected remainder of the
  pool and keeps a draw only if replaying the pool algorithm on it reproduces
  the committed history and selects the most recent arrival next.  Exactly q
  reveals; expected iterations are bounded uniformly over sources but grow
  exponentially with q.
* :class:`SecretaryEmulator` emulates greedy utility-maximizing pools by
  running optimal-stopping attempts per round over a shrinking score domain.
  Expected cost linear in q; more than q reveals (failed attempts discard
  their selection).

:class:`FirstQEmulator` deliberately selects the first q stream elements; it
is not output-equivalent to any interesting pool algorithm and serves as the
negative control for the equivalence tests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import (
    AtomlessDistribution,
    Element,
    History,
    LabeledPair,
    PoolAlgorithm,
    StreamEmulator,
    StreamSource,
    TieDetected,
    _checked_select,
    _new,
    interact_pool,
)
from .secretary import cached_policy

#: Score function of (element, history); higher is selected first.
UtilityFunction = Callable[[Element, History], float]


class GreedyUtilityPool(PoolAlgorithm):
    """Pool algorithm selecting the utility argmax each round.

    ``tie_break`` is "error" (raise :class:`TieDetected`, the no-ties contract)
    or "index" (keep the lowest pool index; value-level behavior stays
    permutation invariant, which makes the algorithm usable on atom-bearing
    pools where duplicate values are common).
    """

    def __init__(self, utility: UtilityFunction, m: int, q: int,
                 tie_break: str = "error"):
        if tie_break not in ("error", "index"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.utility = utility
        self.m = m
        self.q = q
        self.tie_break = tie_break

    def select_next(self, elements: Sequence[Element], history: History,
                    selected: frozenset[int]) -> int:
        utility = self.utility
        best_idx = -1
        best_key = None
        tied = False
        for idx, element in enumerate(elements):
            if idx in selected:
                continue
            key = (utility(element, history), element.tiebreak)
            if best_key is None or key > best_key:
                best_idx, best_key, tied = idx, key, False
            elif key == best_key:
                tied = True
        if tied and self.tie_break == "error":
            raise TieDetected(f"two pool elements share the maximal score {best_key}")
        return best_idx


class FirstQEmulator(StreamEmulator):
    """Select the first q stream elements unconditionally (negative control)."""

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        out = []
        for _ in range(q):
            element = source.next()
            out.append(_new(LabeledPair, (element, source.reveal(element))))
        return tuple(out)


class WaitEmulator(StreamEmulator):
    """Observe a pool-sized prefix, then wait for each chosen value to recur.

    Requires a discrete source without tie-breaks: over an atomless source
    or an interval marginal no value ever recurs, so the wait would only
    ever end at the iteration cap.
    """

    def __init__(self, pool_alg: PoolAlgorithm):
        self.pool_alg = pool_alg

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        if source.dist.atomless or not source.dist.is_discrete:
            raise AtomlessDistribution(
                "the wait emulator needs exact value recurrences; "
                "use a discrete source without tie-breaks")
        alg = self.pool_alg
        elements = [source.next() for _ in range(alg.m)]  # never revealed
        history: list[LabeledPair] = []
        selected: set[int] = set()
        for _ in range(q):
            idx = _checked_select(alg, elements, history, selected)
            target = elements[idx]
            while True:
                element = source.next()
                if element == target:
                    break
            selected.add(idx)
            history.append(_new(LabeledPair, (element, source.reveal(element))))
        return tuple(history)


class NowaitEmulator(StreamEmulator):
    """Select the whole m-element prefix, then replay the pool algorithm offline."""

    def __init__(self, pool_alg: PoolAlgorithm):
        self.pool_alg = pool_alg

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        pool = []
        for _ in range(self.pool_alg.m):
            element = source.next()
            pool.append(_new(LabeledPair, (element, source.reveal(element))))
        return tuple(interact_pool(self.pool_alg, pool, q))


class RejectionEmulator(StreamEmulator):
    """Emulate an arbitrary pool algorithm by rejection over pool remainders.

    For round i with committed history of i-1 pairs, draw m-i+1 fresh sealed
    elements and accept iff a replay of the pool algorithm on committed+fresh
    (a) re-selects exactly the committed pairs in its first i-1 rounds and
    (b) selects the last-drawn fresh element in round i.  On acceptance that
    element is genuinely selected; rejected draws reveal nothing.

    The replay serves recorded responses for committed elements.  If it picks
    a fresh (still sealed) element early, condition (a) has already failed, so
    the replay aborts without ever needing an unrevealed response.
    """

    def __init__(self, pool_alg: PoolAlgorithm):
        self.pool_alg = pool_alg

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        if not source.dist.atomless:
            raise AtomlessDistribution(
                "the rejection emulator assumes an atomless source")
        alg = self.pool_alg
        m = alg.m
        if q > m:
            raise ValueError(f"budget q={q} exceeds pool size m={m}")
        committed: list[LabeledPair] = []
        # The k committed elements in commit order, then the current draw of
        # m - k; each redraw overwrites only the draw.
        elements: list = [None] * m
        nxt = source.next
        for k in range(q):
            while True:
                for j in range(k, m):
                    elements[j] = nxt()
                if self._replay_accepts(committed, elements):
                    break
            # The last draw, just observed, is the one the replay selected.
            element = elements[k] = elements[m - 1]
            committed.append(_new(LabeledPair, (element, source.reveal(element))))
        return tuple(committed)

    def _replay_accepts(self, committed: list[LabeledPair],
                        elements: list[Element]) -> bool:
        alg = self.pool_alg
        k = len(committed)
        history: list[LabeledPair] = []
        selected: set[int] = set()
        for _ in range(k):
            idx = _checked_select(alg, elements, history, selected)
            if idx >= k:
                return False  # a sealed element was picked: history mismatch
            selected.add(idx)
            history.append(committed[idx])
        # First k selections hit all k committed slots, so the replayed pairs
        # equal the committed history as a multiset; check the round-i pick.
        idx = _checked_select(alg, elements, history, selected)
        return idx == len(elements) - 1


class SecretaryEmulator(StreamEmulator):
    """Emulate a greedy utility pool via repeated optimal-stopping attempts.

    Round i runs attempts of horizon m-i+1 over stream elements filtered to
    the current score domain.  Within an attempt, each candidate's score is
    fed to the optimal secretary rule; when the rule fires, the candidate is
    selected and its response revealed.  The attempt succeeds only if that
    selection turns out to score highest among all its candidates; otherwise
    the revealed pair is discarded and a fresh attempt starts.  After a
    success the domain shrinks to scores strictly below the accepted one
    (scored against the history before this round), which is what keeps the
    output distribution aligned with the pool algorithm's.

    The attempt count per round goes to ``source.round_attempts``; the
    emulator itself keeps no per-run state.
    """

    def __init__(self, utility: UtilityFunction, m: int):
        self.utility = utility
        self.m = m

    def run(self, source: StreamSource, q: int) -> tuple[LabeledPair, ...]:
        if not source.dist.atomless:
            raise AtomlessDistribution(
                "the secretary emulator assumes an atomless source")
        m = self.m
        if q > m:
            raise ValueError(f"budget q={q} exceeds pool size m={m}")
        utility = self.utility
        nxt = source.next
        accepted: list[LabeledPair] = []
        # (history snapshot, cutoff key) per finished round, newest first; an
        # element is in the current domain iff it scores strictly below every
        # cutoff under the matching snapshot.  The newest cutoff is the
        # tightest one under a history-independent utility, so testing it
        # first rejects most elements with one utility call.
        filters: list[tuple[tuple[LabeledPair, ...], tuple[float, float]]] = []
        attempts_log: list[int] = []
        for i in range(1, q + 1):
            horizon = m - i + 1
            threshold = cached_policy(horizon).threshold
            snapshot = tuple(accepted)
            attempts = 0
            while True:
                attempts += 1
                best_key = None
                chosen: LabeledPair | None = None
                chosen_key = None
                for j in range(1, horizon + 1):
                    while True:
                        element = nxt()
                        for hist, cutoff in filters:
                            if (utility(element, hist), element.tiebreak) >= cutoff:
                                break
                        else:
                            break
                    key = (utility(element, snapshot), element.tiebreak)
                    if best_key is None or key > best_key:
                        best_key = key
                        if chosen is None and j >= threshold:
                            chosen = _new(LabeledPair, (element, source.reveal(element)))
                            chosen_key = key
                if chosen is not None and chosen_key == best_key:
                    break
                # failed attempt: any revealed pair stays counted but discarded
            attempts_log.append(attempts)
            filters.insert(0, (snapshot, chosen_key))
            accepted.append(chosen)
        source.round_attempts = tuple(attempts_log)
        return tuple(accepted)
