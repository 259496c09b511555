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
    interact_pool,
)
from .secretary import cached_policy

#: Score function of (element, history); higher is selected first.
UtilityFunction = Callable[[Element, History], float]


class GreedyUtilityPool(PoolAlgorithm):
    """Pool algorithm selecting the utility argmax each round.

    Keys compare score first, then tie-break; scores must be totally ordered.
    Equal elements sharing the maximal key are one value, so the lowest pool
    index is kept; unequal ones would make the pick depend on pool order, so
    they raise :class:`TieDetected`.
    """

    def __init__(self, utility: UtilityFunction, m: int, q: int):
        super().__init__(m, q)
        self.utility = utility

    def select_next(self, elements: Sequence[Element], history: History,
                    selected: frozenset[int]) -> int:
        utility = self.utility
        best_idx = -1
        best = best_tb = None
        tied = False
        for idx, element in enumerate(elements):
            if idx in selected:
                continue
            score = utility(element, history)
            if best is None or score > best or score == best and element.tiebreak > best_tb:
                best_idx, best, best_tb, tied = idx, score, element.tiebreak, False
            elif (score == best and element.tiebreak == best_tb
                  and element.base != elements[best_idx].base):
                tied = True
        if tied:
            raise TieDetected(f"unequal pool elements share the maximal key {(best, best_tb)}")
        return best_idx


class FirstQEmulator(StreamEmulator):
    """Select the first ``pool_alg.q`` stream elements unconditionally
    (negative control); the pool algorithm itself is never run."""

    def run(self, source: StreamSource) -> tuple[LabeledPair, ...]:
        return tuple([source.reveal(source.next()) for _ in range(self.pool_alg.q)])


class WaitEmulator(StreamEmulator):
    """Observe a pool-sized prefix, then wait for each chosen value to recur.

    Requires a discrete source without tie-breaks: over an atomless source
    or an interval marginal no value ever recurs, so the wait would only
    ever end at the iteration cap.
    """

    def run(self, source: StreamSource) -> tuple[LabeledPair, ...]:
        if source.dist.atomless or not source.dist.is_discrete:
            raise AtomlessDistribution(
                "the wait emulator needs exact value recurrences; "
                "use a discrete source without tie-breaks")
        alg = self.pool_alg
        elements = [source.next() for _ in range(alg.m)]  # never revealed

        def wait_for(idx: int) -> LabeledPair:
            target = elements[idx]
            while True:
                element = source.next()
                if element == target:
                    return source.reveal(element)
        return tuple(interact_pool(alg, elements, wait_for))


class NowaitEmulator(StreamEmulator):
    """Select the whole m-element prefix, then replay the pool algorithm offline."""

    def run(self, source: StreamSource) -> tuple[LabeledPair, ...]:
        pool = [source.reveal(source.next()) for _ in range(self.pool_alg.m)]
        return tuple(interact_pool(self.pool_alg, [p.element for p in pool],
                                   pool.__getitem__))


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

    def run(self, source: StreamSource) -> tuple[LabeledPair, ...]:
        if not source.dist.atomless:
            raise AtomlessDistribution(
                "the rejection emulator assumes an atomless source")
        alg = self.pool_alg
        m, q = alg.m, alg.q
        committed: list[LabeledPair] = []
        # The k committed elements in commit order, then the current draw of
        # m - k; each redraw overwrites only the draw.
        elements: list = [None] * m
        nxt = source.next
        none_selected: frozenset[int] = frozenset()  # _checked_select passes it uncopied
        for k in range(q):
            while True:
                for j in range(k, m):
                    elements[j] = nxt()
                # Accept iff the replay's first k picks are the k committed
                # slots, in any order, and the next is the last draw.
                history: list[LabeledPair] = []
                selected = none_selected
                for _ in range(k):
                    idx = _checked_select(alg, elements, history, selected)
                    if idx >= k:
                        break  # a sealed element was picked: history mismatch
                    selected |= {idx}
                    history.append(committed[idx])
                else:
                    if _checked_select(alg, elements, history, selected) == m - 1:
                        break
            # The last draw, just observed, is the one the replay selected.
            element = elements[k] = elements[m - 1]
            committed.append(source.reveal(element))
        return tuple(committed)


class SecretaryEmulator(StreamEmulator):
    """Emulate a greedy utility pool via repeated optimal-stopping attempts.

    Round i runs attempts of horizon m-i+1 over stream elements filtered to
    the current score domain.  Within an attempt, each candidate's score is
    fed to the optimal secretary rule; when the rule fires, the candidate is
    selected and its response revealed.  The attempt succeeds only if that
    selection turns out to score highest among all its candidates; otherwise
    the revealed pair is discarded and a fresh attempt starts.  After a
    success the domain shrinks to keys strictly below the accepted one
    (scored against the history before this round), which is what keeps the
    output distribution aligned with the pool algorithm's.  Keys compare
    score first, then tie-break; scores must be totally ordered.

    ``pool_alg`` is the :class:`GreedyUtilityPool` emulated: its utility,
    m and q are the emulator's.  The attempt count per round goes to
    ``source.round_attempts``; the emulator itself keeps no per-run state.
    """

    def run(self, source: StreamSource) -> tuple[LabeledPair, ...]:
        if not source.dist.atomless:
            raise AtomlessDistribution(
                "the secretary emulator assumes an atomless source")
        pool = self.pool_alg
        m, q, utility = pool.m, pool.q, pool.utility
        nxt = source.next
        accepted: list[LabeledPair] = []
        # (history snapshot, cutoff score, cutoff tie-break) per finished
        # round, newest first; an element is in the current domain iff its key
        # is below every cutoff under the matching snapshot.  The newest cutoff
        # is the tightest one under a history-independent utility, so testing
        # it first rejects most elements with one utility call.
        filters: list[tuple[tuple[LabeledPair, ...], float, float]] = []
        attempts_log: list[int] = []
        for i in range(1, q + 1):
            horizon = m - i + 1
            threshold = cached_policy(horizon).threshold
            snapshot = tuple(accepted)
            attempts = 0
            while True:
                attempts += 1
                best = best_tb = None
                chosen: LabeledPair | None = None
                chosen_key = None
                for j in range(1, horizon + 1):
                    while True:
                        element = nxt()
                        for hist, cut, cut_tb in filters:
                            score = utility(element, hist)
                            if score > cut or score == cut and element.tiebreak >= cut_tb:
                                break
                        else:
                            break
                    score = utility(element, snapshot)
                    if (best is None or score > best
                            or score == best and element.tiebreak > best_tb):
                        best, best_tb = score, element.tiebreak
                        if chosen is None and j >= threshold:
                            chosen = source.reveal(element)
                            chosen_key = (score, best_tb)
                if chosen is not None and chosen_key == (best, best_tb):
                    break
                # failed attempt: any revealed pair stays counted but discarded
            attempts_log.append(attempts)
            filters.insert(0, (snapshot, *chosen_key))
            accepted.append(chosen)
        source.round_attempts = tuple(attempts_log)
        return tuple(accepted)
