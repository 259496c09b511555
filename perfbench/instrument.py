"""Instrumentation installed from outside the package by patching attributes.

:class:`TrialHook` is the only hook of an untraced run: it times each trial
and keeps its counters.  :class:`Tracer` records a span at every module
boundary of ``poolstream`` (name, start, end, parent) plus counts at the same
boundaries.  Both patch module and class attributes and restore them on
``uninstall``; the package itself is never edited.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np

_clock = time.perf_counter_ns


class _Patches:
    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class TrialHook:
    """Per-trial latency, from a trial's ``trial_rng`` call to the return of
    its ``run_stream`` call, and its (n_iter, n_sel).  For secretary-table,
    where no trials run, each row of ``policy_table`` counts as one trial.
    Failed trials (iteration cap, incomplete pool) are counted, not timed."""

    def __init__(self, ps):
        self._ps = ps
        self._patches = _Patches()
        self._start = 0
        self.reset()

    def reset(self):
        self.latencies_ns = array("q")
        self.n_iter: list[int] = []
        self.n_sel: list[int] = []
        self.attempted = 0
        self.failed = 0

    def install(self, cli=None):
        cli = cli or self._ps.cli
        failures = (self._ps.core.IterationCapExceeded,
                    self._ps.constructions.IncompletePool)

        def make_trial_rng(original):
            def trial_rng(seed, trial):
                self._start = _clock()
                return original(seed, trial)
            return trial_rng

        def make_run_stream(original):
            def run_stream(*args, **kwargs):
                self.attempted += 1
                try:
                    record = original(*args, **kwargs)
                except failures:
                    self.failed += 1
                    raise
                self.latencies_ns.append(_clock() - self._start)
                self.n_iter.append(record.n_iter)
                self.n_sel.append(record.n_sel)
                return record
            return run_stream

        def make_policy_table(original):
            def policy_table(n_max):
                rows = original(n_max)
                while True:
                    start = _clock()
                    row = next(rows, None)
                    if row is None:
                        return
                    self.latencies_ns.append(_clock() - start)
                    self.attempted += 1
                    yield row
            return policy_table

        self._patches.wrap(cli, "trial_rng", make_trial_rng)
        self._patches.wrap(cli, "run_stream", make_run_stream)
        self._patches.wrap(cli, "policy_table", make_policy_table)

    def uninstall(self):
        self._patches.restore()

    def overhead_ns(self, calls: int = 20000) -> float:
        """Cost the hook adds to one trial, measured on no-op stand-ins."""
        record = SimpleNamespace(n_iter=1, n_sel=1)
        stub = SimpleNamespace(trial_rng=lambda seed, trial: None,
                               run_stream=lambda rng: record,
                               policy_table=None)

        def loop():
            start = _clock()
            for t in range(calls):
                stub.run_stream(stub.trial_rng(0, t))
            return _clock() - start

        bare = min(loop() for _ in range(3))
        self.install(stub)
        try:
            hooked = min(loop() for _ in range(3))
        finally:
            self.uninstall()
            self.reset()
        return (hooked - bare) / calls


class Tracer:
    """Spans at poolstream's module boundaries, kept in memory.

    Every span stores (name, start, end, parent); a layer's self time is its
    span minus the time its child spans cover.  Counts that are too frequent
    to span (utility evaluations, policy-cache lookups) are plain counters.
    Spans are grouped into reps by :meth:`begin`; :meth:`save` writes all of
    them out once, at the end.
    """

    SPANS = ("cli.main", "core.trial_rng", "core.run_stream", "core.first_next",
             "core.next", "core.reveal", "emulators.run", "emulators.select_next",
             "constructions.select_next", "secretary.policy_table",
             "secretary.optimal_policy", "stats.exact", "stats.canonicalize",
             "stats.tv_distance", "stats.mean_ci")

    def __init__(self, ps):
        self._ps = ps
        self._patches = _Patches()
        self._ids = {name: i for i, name in enumerate(self.SPANS)}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.reps: list[tuple[str, int]] = []  # (label, first span index)
        self.counts: list[Counter] = []

    def begin(self, label: str) -> None:
        """Start a new rep; later spans and counts belong to it."""
        self.reps.append((label, len(self.name)))
        self.counts.append(Counter())

    def _span(self, name: str, fn):
        nid = self._ids[name]
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
        return wrapper

    def _count(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        ps, p = self._ps, self._patches
        cli, core, emulators, constructions, secretary, stats = (
            ps.cli, ps.core, ps.emulators, ps.constructions, ps.secretary, ps.stats)
        failures = {core.IterationCapExceeded: "core.cap_exceeded",
                    constructions.IncompletePool: "constructions.incomplete_pool"}

        p.wrap(cli, "main", lambda f: self._span("cli.main", f))
        p.wrap(cli, "trial_rng", lambda f: self._span("core.trial_rng", f))

        def make_run_stream(original):
            spanned = self._span("core.run_stream", original)

            def run_stream(*args, **kwargs):
                counts = self.counts[-1]
                try:
                    record = spanned(*args, **kwargs)
                except tuple(failures) as exc:
                    counts[failures[type(exc)]] += 1
                    raise
                counts["trials"] += 1
                counts["n_iter"] += record.n_iter
                counts["n_sel"] += record.n_sel
                if record.round_attempts is not None:
                    counts["round_attempts"] += sum(record.round_attempts)
                    counts["rounds"] += len(record.round_attempts)
                return record
            return run_stream
        p.wrap(cli, "run_stream", make_run_stream)

        def make_next(original):
            first = self._span("core.first_next", original)
            later = self._span("core.next", original)

            def next_(source):
                return first(source) if source.n_iter == 0 else later(source)
            return next_
        p.wrap(core.StreamSource, "next", make_next)
        p.wrap(core.StreamSource, "reveal", lambda f: self._span("core.reveal", f))

        for cls in (emulators.WaitEmulator, emulators.NowaitEmulator,
                    emulators.RejectionEmulator, emulators.SecretaryEmulator,
                    emulators.FirstQEmulator):
            p.wrap(cls, "run", lambda f: self._span("emulators.run", f))
        p.wrap(emulators.GreedyUtilityPool, "select_next",
               lambda f: self._span("emulators.select_next", f))
        # The fixtures' utility is cli.base_utility, looked up when the CLI
        # builds the fixture, so the wrapped one reaches pool and emulator.
        p.wrap(cli, "base_utility", lambda f: self._count("emulators.utility", f))

        for cls in (constructions.CodedPoolAlgorithm, constructions.BitIdentificationPool):
            p.wrap(cls, "select_next", lambda f: self._span("constructions.select_next", f))
        p.wrap(constructions, "permutation_from_unit",
               lambda f: self._count("constructions.permutation_from_unit", f))

        def make_policy_table(original):
            spanned = self._span("secretary.policy_table", lambda n: list(original(n)))
            return lambda n_max: iter(spanned(n_max))
        p.wrap(cli, "policy_table", make_policy_table)
        p.wrap(secretary, "optimal_policy",
               lambda f: self._span("secretary.optimal_policy", f))
        for module in (cli, emulators):
            p.wrap(module, "cached_policy",
                   lambda f: self._count("secretary.cached_policy", f))

        def make_exact(original):
            spanned = self._span("stats.exact", original)

            def exact(*args, **kwargs):
                dist = spanned(*args, **kwargs)
                self.counts[-1]["stats.support"] += len(dist.support)
                return dist
            return exact
        p.wrap(cli, "exact_pool_distribution", make_exact)
        p.wrap(cli, "two_region_exact_distribution", make_exact)
        for cls in (stats.RankPattern, stats.DiscreteProjection):
            p.wrap(cls, "__call__", lambda f: self._span("stats.canonicalize", f))
        p.wrap(cli, "tv_distance", lambda f: self._span("stats.tv_distance", f))
        p.wrap(cli, "mean_ci", lambda f: self._span("stats.mean_ci", f))

    def uninstall(self) -> None:
        self._patches.restore()

    def rep_totals(self, rep: int) -> dict[str, tuple[int, int, int]]:
        """Per span name in one rep: (calls, total ns, self ns)."""
        lo = self.reps[rep][1]
        hi = self.reps[rep + 1][1] if rep + 1 < len(self.reps) else len(self.name)
        names = np.frombuffer(self.name, dtype=np.int8)[lo:hi].astype(np.intp)
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi])
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        # Spans of one thread nest and siblings never overlap, so the time
        # children cover is the sum of their durations.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_ns = dur - covered
        k = len(self.SPANS)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_ns, minlength=k)
        return {name: (int(calls[i]), int(total[i]), int(own[i]))
                for i, name in enumerate(self.SPANS)}

    def save(self, path: str) -> None:
        """Write every span, with its rep labels, as one .npz file."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.SPANS),
                     name=np.frombuffer(self.name, dtype=np.int8),
                     start=np.frombuffer(self.start, dtype=np.int64),
                     end=np.frombuffer(self.end, dtype=np.int64),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     rep_label=np.array([label for label, _ in self.reps]),
                     rep_first=np.array([first for _, first in self.reps], dtype=np.int64))
