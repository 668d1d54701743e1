"""The exact series products: the public entries against nested loops, the
worst-case magnitudes at delta's length and width, the width of each entry
pinned by its transform count, and the package import without ``numpy.fft``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import newform_basis as nb
from newform_basis import series


def _naive_product(x, y, n):
    """The first n terms of the product of the series x and y, over Python ints."""
    x, y = [int(v) for v in x], [int(v) for v in y]
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n)]


def _count_transforms(monkeypatch):
    """{'rfft': 0, 'irfft': 0}, counting every call of each from here on."""
    calls = {"rfft": 0, "irfft": 0}
    for name, transform in [(name, getattr(np.fft, name)) for name in calls]:
        def counted(*args, name=name, transform=transform):
            calls[name] += 1
            return transform(*args)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


_BIG = 1 << 70


_RANGES = {np.int64: (-(1 << 63), (1 << 63) - 1), np.uint64: (0, (1 << 64) - 1),
           object: (-_BIG, _BIG)}


@st.composite
def _series_pair(draw):
    """Two series of the same n terms, as int64 or uint64 arrays or as object
    arrays of Python ints past int64, edges included."""
    n = draw(st.integers(min_value=1, max_value=60))
    out = []
    for _ in range(2):
        dtype = draw(st.sampled_from(list(_RANGES)))
        lo, hi = _RANGES[dtype]
        values = st.one_of(st.sampled_from([lo, hi, 0]), st.integers(lo, hi))
        out.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return out


class TestEntries:
    @settings(max_examples=40, deadline=None)
    @given(_series_pair())
    def test_product_matches_nested_loops(self, factors):
        x, y = factors
        n = len(x)
        before = x.tolist(), y.tolist()
        assert series.product(x, y, n).tolist() == _naive_product(x, y, n)
        assert (x.tolist(), y.tolist()) == before  # the factors are left as they were

    @settings(max_examples=25, deadline=None)
    @given(_series_pair(), st.integers(min_value=0, max_value=2))
    def test_square_matches_nested_loops(self, factors, times):
        x = factors[0]
        n, before = len(x), x.tolist()
        expected = before
        for _ in range(times):
            expected = _naive_product(expected, expected, n)
        assert series.square(x, n, times).tolist() == expected
        assert x.tolist() == before

    def test_result_is_int64_while_one_word_holds_it(self):
        # a zero series has no digits, and its product is the int64 zero table
        x, zero = np.arange(1, 41, dtype=np.int64), np.zeros(40, dtype=np.int64)
        for out, expected in ((series.product(x, x, 40), _naive_product(x, x, 40)),
                              (series.product(zero, x, 40), [0] * 40),
                              (series.square(zero, 40, 2), [0] * 40)):
            assert out.dtype == np.int64 and out.tolist() == expected
        big = series.square(x << 40, 40, 1)
        assert big.dtype == object and big.tolist() == _naive_product(x << 40, x << 40, 40)

    def test_a_narrow_series_is_its_own_digit(self):
        # an int8 indicator is one digit as it is, with no int64 copy; a uint8
        # series, whose 255 is no balanced 8-bit digit, is split like any other
        ind = (np.arange(50) % 7 == 3).astype(np.int8)
        assert series._digits(ind, 8)[0] is ind and series._digits(0 * ind, 8) == []
        u = np.full(50, 255, dtype=np.uint8)
        digits = series._digits(u, 8)
        assert all(np.abs(d.astype(np.int64)).max() <= 128 for d in digits)
        assert series._combine(digits, 8, 50).tolist() == [255] * 50
        x = np.arange(50, dtype=np.int64) ** 5
        assert series.product(x, ind, 50).tolist() == _naive_product(x, ind, 50)


class TestWidth:
    def test_worst_case_digits_at_delta_length(self, monkeypatch):
        # 6 digit series of 7 * 10^4 terms, every digit -2^(W-1), squared at
        # delta's W = 13 and m = 6: every product of every group is as large as
        # a digit series allows, and each of the 11 groups fits one inverse
        # transform.  The series is d at every term, so its square has (k + 1) d^2
        # at term k
        n = 70_000
        w, m, size = series._plan(n, square=True)
        assert (w, m) == (13, 6)
        half = 1 << (w - 1)
        digits = [np.full(n, -half, dtype=np.int64)] * 6
        d = -half * sum(1 << (w * i) for i in range(6))
        calls = _count_transforms(monkeypatch)
        out = series._combine(series._product(digits, digits, n, w, m, size), w, n)
        assert calls == {"rfft": 6, "irfft": 11}
        assert out.tolist() == [(k + 1) * d * d for k in range(n)]

    def test_count_step_runs_at_the_full_width(self, monkeypatch):
        # two product steps at 10^5 + 1, each layer one digit at _digit_bits(n)
        # times the indicator: 2 forward transforms and 1 inverse each.  One bit
        # narrower, a layer takes two digits: 5 + 3
        calls = _count_transforms(monkeypatch)
        nb.count_representations(10**5 + 1, 5, 1)
        assert calls == {"rfft": 4, "irfft": 2}


def test_import_leaves_numpy_fft_unloaded():
    # the kernel reaches np.fft at call time, so a fresh import stays without it
    src = str(Path(nb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, newform_basis; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
