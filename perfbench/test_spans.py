"""Tests of the span recorder's arithmetic and the tail-percentile rule.

Run with ``python3 -m pytest perfbench``.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import TAIL_FALLBACK, Recorder, nearest_rank, rank, tail_percentile, tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def run_tree(rec, clock, node):
    """node = (name, own time before children, children, own time after)."""
    name, before, children, after = node
    with rec.span(name):
        clock.advance(before)
        for child in children:
            run_tree(rec, clock, child)
        clock.advance(after)


def stats(rec, phase="pass"):
    return {k: (v.calls, v.total, v.self) for k, v in rec.summary(phase).items()}


def test_nested_spans_subtract_only_direct_children():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.phase = "pass"
    run_tree(rec, clock, ("op", 1.0, [("mid", 2.0, [("leaf", 4.0, [], 0.0)], 1.0)], 0.5))
    assert stats(rec) == {
        "op": (1, 8.5, 1.5),
        "mid": (1, 7.0, 3.0),
        "leaf": (1, 4.0, 4.0),
    }
    assert sum(s for _, _, s in stats(rec).values()) == 8.5
    assert rec.root_self == {"pass": 1.5}, "only the root's own time is unattributed"


def test_back_to_back_children_and_repeated_names():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.phase = "pass"
    children = [("leaf", 1.0, [], 0.0), ("leaf", 2.0, [], 0.0), ("other", 0.25, [], 0.0)]
    run_tree(rec, clock, ("op", 0.5, children, 0.25))
    run_tree(rec, clock, ("op", 0.0, [], 1.0))
    assert stats(rec) == {
        "op": (2, 5.0, 1.75),
        "leaf": (2, 3.0, 3.0),
        "other": (1, 0.25, 0.25),
    }
    assert rec.root_self == {"pass": 1.75}


def test_phases_pause_and_counts():
    clock = FakeClock()
    rec = Recorder(clock)
    run_tree(rec, clock, ("ignored", 1.0, [], 0.0))
    rec.phase = "setup"
    run_tree(rec, clock, ("build", 2.0, [], 0.0))
    rec.count("calls", 3)
    rec.phase = "pass"
    with rec.paused():
        run_tree(rec, clock, ("check", 1.0, [], 0.0))
        rec.count("calls")
    rec.count("calls")
    assert stats(rec, "setup") == {"build": (1, 2.0, 2.0)}
    assert stats(rec, "pass") == {}
    assert rec.root_self == {"setup": 2.0}
    assert rec.counts == {("setup", "calls"): 3, ("pass", "calls"): 1}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = Recorder(clock)
    rec.phase = "pass"
    with pytest.raises(ValueError):
        with rec.span("op"):
            clock.advance(1.0)
            with rec.span("inner"):
                clock.advance(2.0)
                raise ValueError
    assert stats(rec) == {"op": (1, 3.0, 1.0), "inner": (1, 2.0, 2.0)}


def test_tracing_wraps_every_reference_and_restores_it():
    def double(x):
        return 2 * x

    class Table:
        def value(self):
            return 5

    Table.__module__ = "fake_layer"
    value = Table.value
    layer, reexport = types.ModuleType("fake_layer"), types.ModuleType("fake_package")
    layer.double, layer.Table, reexport.double = double, Table, double
    rec = Recorder()
    wraps = {double: ("fake.double", "span", None), value: ("fake.value", "count", None)}
    with tracing(rec, "pass", [layer, reexport], wraps):
        assert layer.double(3) == 6 and reexport.double(4) == 8
        assert Table().value() == 5
    assert layer.double is double and reexport.double is double and Table.value is value
    assert rec.phase is None
    assert rec.summary("pass")["fake.double"].calls == 2
    assert rec.counts == {("pass", "fake.value"): 1}


@pytest.mark.parametrize(
    "ops, expected",
    [
        (1, TAIL_FALLBACK),  # no percentile leaves 10 above it (eta-delta)
        (19, TAIL_FALLBACK),
        (20, 50.0),  # 10 beyond the median
        (40, 75.0),
        (58, 80.0),  # search-delta: 51 small + 7 large targets
        (100, 90.0),  # wg-mixed solves: exactly 10 beyond
        (120, 90.0),  # constructive-11a: 60 targets and their negations
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_beyond(ops, expected):
    p = tail_percentile(ops)
    assert p == expected
    if ops >= 20:  # the smallest pass a ladder entry can serve
        assert ops - rank(p, ops) >= 10


def test_nearest_rank():
    xs = list(range(1, 101))
    assert nearest_rank(xs, 50.0) == 50
    assert nearest_rank(xs, 90.0) == 90
    assert nearest_rank(xs, 100.0) == 100
    assert nearest_rank([3.0], 99.9) == 3.0
    assert nearest_rank(reversed(xs), 1.0) == 1

