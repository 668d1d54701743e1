"""In-memory span recorder, tracing wrappers and the summary statistics.

A span is one timed call at a layer boundary.  When a span closes, its
calls, inclusive time and self time (its duration minus the time covered by
its direct children) are added to the totals for its (phase, name); the
spans themselves are not kept.  A span opened with nothing open around it
is a root span, and its self time is also added to ``root_self`` for the
phase.  The recorder is single-threaded, like the benchmark.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

# Percentiles tried for the tail metric, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Used when a pass has too few operations for any ladder entry (eta-delta:
# one verified table per pass).  The upper quartile of the run's ~17
# passes, not their maximum, which measured the host's worst stall: on a
# shared 2-core host two sets of ten runs spread 0.13 and 0.52 of the median.
TAIL_FALLBACK = 75.0


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # inclusive busy time, summed over calls
    self: float = 0.0  # total minus the time covered by direct children


class Recorder:
    """Records nested spans and named counters while ``phase`` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase: str | None = None
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.root_self: Counter = Counter()  # phase -> self time of root spans
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # open spans: [start, time of closed children]

    @contextmanager
    def span(self, name: str):
        if self.phase is None:
            yield
            return
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            dur = self.clock() - frame[0]
            st = self.stats.setdefault((self.phase, name), SpanStats())
            st.calls += 1
            st.total += dur
            st.self += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            else:
                self.root_self[self.phase] += dur - frame[1]

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    def count(self, name: str, n: int = 1) -> None:
        if self.phase is not None:
            self.counts[(self.phase, name)] += n

    def summary(self, phase: str) -> dict[str, SpanStats]:
        """Calls, inclusive time and self time per span name within one phase."""
        return {name: st for (ph, name), st in self.stats.items() if ph == phase}


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile leaving at least TAIL_MIN_BEYOND of one pass's ops above it.

    The percentile is fixed by the size of the input set, not by how many
    passes a run completes, so a faster program is not judged at a higher
    percentile.  Returns TAIL_FALLBACK when no ladder entry qualifies.
    """
    for p in TAIL_LADDER:
        if ops_per_pass - rank(p, ops_per_pass) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_FALLBACK


def nearest_rank(samples, p: float) -> float:
    """The p-th percentile of samples by the nearest-rank rule."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[rank(p, len(xs)) - 1]


def _traced(rec: Recorder, name: str, fn, on_result=None):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if on_result is not None:
            on_result(out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def tracing(rec: Recorder, phase: str, modules, wraps):
    """Install tracing wrappers for the duration of the block, then restore.

    ``wraps`` maps a function or method object to ``(name, kind, on_result)``
    with kind ``"span"`` or ``"count"``.  Every attribute of every module in
    ``modules`` (and of every class defined there) that refers to the
    function is replaced, so calls the library makes between its own modules
    are traced as well as the benchmark's.
    """
    replaced = []
    owners = list(modules)
    owners += [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            spec = wraps.get(value) if callable(value) else None
            if spec is None:
                continue
            name, kind, on_result = spec
            new = _traced(rec, name, value, on_result) if kind == "span" else _counted(rec, name, value)
            replaced.append((owner, attr, value))
            setattr(owner, attr, new)
    rec.phase = phase
    try:
        yield
    finally:
        rec.phase = None
        for owner, attr, value in reversed(replaced):
            setattr(owner, attr, value)
