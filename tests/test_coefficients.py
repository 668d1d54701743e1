import hashlib
import tracemalloc
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ETA_FACTOR_SPECS, naive_check_identities, naive_eta_coefficients
from newform_basis import (
    DELTA,
    FORM_11A,
    CoeffTable,
    FormatError,
    IntegrityError,
    MemoryGuardError,
    NewformDescriptor,
    TableTooSmallError,
    VerificationError,
    builtin_descriptor,
    check_identities,
    expand_eta_product,
    hecke_extend,
    load_newform,
    save_prime_table,
)
from newform_basis import coefficients, primes
from newform_basis.primes import primes_up_to


@pytest.fixture(scope="module")
def f11a_1m():
    return expand_eta_product(FORM_11A, 10**6)


@pytest.fixture(scope="module")
def delta_1300():
    # 2 * 1300^6 >= 2^63, so this weight-12 table stores exact Python ints
    return expand_eta_product(DELTA, 1300)


class TestDescriptor:
    def test_builtin_shapes(self):
        assert (DELTA.weight, DELTA.level, DELTA.k) == (12, 1, 6)
        assert (FORM_11A.weight, FORM_11A.level, FORM_11A.k) == (2, 11, 1)

    def test_builtin_lookup(self):
        assert builtin_descriptor("delta") is DELTA
        assert builtin_descriptor("11a") is FORM_11A
        with pytest.raises(ValueError):
            builtin_descriptor("37b")

    @pytest.mark.parametrize("weight,level", [(0, 1), (11, 1), (2, 0), (-2, 5)])
    def test_invalid_shape_rejected(self, weight, level):
        with pytest.raises(ValueError):
            NewformDescriptor(weight, level, "x")

    def test_builtin_shape_pinned(self):
        with pytest.raises(ValueError):
            NewformDescriptor(12, 2, "builtin-delta")
        with pytest.raises(ValueError):
            NewformDescriptor(4, 11, "builtin-11a")


class TestEtaExpansion:
    @pytest.mark.parametrize("name,descriptor", [("delta", DELTA), ("11a", FORM_11A)])
    def test_matches_naive_convolution_oracle(self, name, descriptor):
        n_max = 200
        oracle = naive_eta_coefficients(ETA_FACTOR_SPECS[name], n_max)
        table = expand_eta_product(descriptor, n_max)
        assert [table.a(n) for n in range(1, n_max + 1)] == oracle

    def test_delta_low_coefficients(self):
        # oracle-checked literals: the naive expansion reproduces them above
        table = expand_eta_product(DELTA, 10)
        assert [table.a(n) for n in (1, 2, 3, 4, 6)] == [1, -24, 252, -1472, -6048]

    def test_delta_nmax_1(self):
        table = expand_eta_product(DELTA, 1)
        assert table.n_max == 1 and table.a(1) == 1

    def test_11a_low_coefficients(self):
        table = expand_eta_product(FORM_11A, 10)
        assert [table.a(n) for n in (2, 3, 4, 5)] == [-2, -1, 2, 1]

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            expand_eta_product(DELTA, 0)

    def test_rejects_file_source(self):
        descriptor = NewformDescriptor(12, 1, "table.txt")
        with pytest.raises(ValueError):
            expand_eta_product(descriptor, 10)

    @pytest.mark.parametrize("descriptor, n", [(DELTA, 8), (FORM_11A, 8), (FORM_11A, 121)])
    def test_build_checks_every_prime_power(self, monkeypatch, descriptor, n):
        # a(8) passes every prime-square identity; a(121) = a(11)^2 at the level prime
        eta_values = coefficients._eta_values

        def tampered(factors, n_max):
            values = eta_values(factors, n_max)
            values[n - 1] += 1
            return values

        monkeypatch.setattr(coefficients, "_eta_values", tampered)
        with pytest.raises(VerificationError, match=f"^Hecke relation fails at n={n}$"):
            expand_eta_product(descriptor, 200)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=240))
    def test_truncation_consistency(self, m):
        big = expand_eta_product(DELTA, 240)
        small = expand_eta_product(DELTA, m)
        assert [small.a(n) for n in range(1, m + 1)] == [big.a(n) for n in range(1, m + 1)]

    def test_truncate_view(self, delta_1k):
        t = delta_1k.truncate(100)
        assert t.n_max == 100
        assert [t.a(n) for n in range(1, 101)] == [delta_1k.a(n) for n in range(1, 101)]
        with pytest.raises(ValueError):
            delta_1k.truncate(0)


def _dense(series, n):
    exps, weights = series
    out = np.zeros(n, dtype=np.int64)
    out[exps] = weights
    return out.tolist()


_INT64_MAX = (1 << 63) - 1


def _recombine(digits, w, n):
    """sum_i digits[i] * 2^(w i) over n terms as exact Python ints."""
    value = np.zeros(n, dtype=object)
    for i, d in enumerate(digits):
        value += d.astype(object) * (1 << (w * i))
    return value


_F11A_1M_DIGEST = "b5c2edbe7aa465c17ca3c039f6634df1ed8c75be2e7824f9bcbc5ed484ef1c4c"


def _digest(values):
    if values.dtype == object:
        return hashlib.sha256(",".join(map(str, values.tolist())).encode()).hexdigest()
    return hashlib.sha256(values.astype("<i8").tobytes()).hexdigest()


def _naive_product(x, y, n, w):
    """The product of the series sum_i x[i] 2^(w i) and sum_j y[j] 2^(w j),
    truncated to n terms, by nested loops over exact Python ints."""
    xs, ys = _recombine(x, w, n).tolist(), _recombine(y, w, n).tolist()
    out = [0] * n
    for i, a in enumerate(xs):
        for j in range(n - i):
            out[i + j] += a * ys[j]
    return out


def _naive_square(digits, n, w):
    return _naive_product(digits, digits, n, w)


def _emitted(values, w):
    """The balanced w-bit digits that ``_emit`` takes off the int64 values,
    until nothing is left."""
    carry, digits = np.array(values, dtype=np.int64), []
    while carry.any():
        digits.append(coefficients._emit(carry, w))
    return digits


def _shift_irfft(monkeypatch, shift):
    """Push entry 1 of every inverse FFT ``shift`` off its value."""
    irfft = np.fft.irfft

    def perturbed(*args):
        x = irfft(*args)
        x[1] += shift
        return x

    monkeypatch.setattr(np.fft, "irfft", perturbed)


def _assert_balanced(digits, w):
    for d in digits:
        assert -(1 << (w - 1)) <= d.min() and d.max() < 1 << (w - 1)
    assert not digits or digits[-1].any()


def _draw_digits(draw, n):
    """1-4 digit series |d| <= 2^(W-1) of n terms, W = _digit_bits(n), edges included."""
    half = 1 << (coefficients._digit_bits(n) - 1)
    digit = st.one_of(st.sampled_from([-half, half, 0]), st.integers(-half, half))
    return [draw(arrays(np.int64, n, elements=digit)) for _ in range(draw(st.integers(1, 4)))]


@st.composite
def _digit_series(draw):
    return _draw_digits(draw, draw(st.integers(min_value=1, max_value=300)))


@st.composite
def _digit_series_pair(draw):
    """Two factors of the same n terms, each with its own count of 1-4 digit series."""
    n = draw(st.integers(min_value=1, max_value=300))
    return _draw_digits(draw, n), _draw_digits(draw, n)


def _balanced_limbs(values, base):
    """Limbs l_j with entries in [-base/2, base/2) and values = sum_j l_j base^j."""
    limbs = []
    while any(values) or not limbs:
        digits = [(v + base // 2) % base - base // 2 for v in values]
        limbs.append(digits)
        values = [(v - d) // base for v, d in zip(values, digits)]
    return limbs


# the factors of each pass route: delta as 24 pentagonal series, so that its
# passes, like the level-11 ones, all have weights +-1
_PASS_FACTORS = {"delta": ((1, 1),) * 24, "11a": ETA_FACTOR_SPECS["11a"]}


def _pass_route(factors, n, headroom, limbs):
    """Coefficients 1..n of q * prod (1 - q^(scale m))^power: the two longest
    sparse series multiplied sparse, each other one a shifted-add pass.  With a
    headroom, a pass runs on balanced power-of-two limbs of its input, the
    widest with max|limb| * sum|w| < headroom; ``limbs`` gets the limb count of
    every pass."""
    first, second, *rest = coefficients._sparse_series(factors, n - 1)
    value = coefficients._sparse_product(first, second, n).tolist()
    out = np.empty(n, dtype=np.int64)
    for series in rest:
        base, total = 2, int(np.abs(series[1]).sum())
        while headroom is not None and base * total < headroom:
            base *= 2
        parts = [value] if headroom is None else _balanced_limbs(value, base)
        limbs.append(len(parts))
        value = [0] * n
        for j, part in enumerate(parts):
            coefficients._shift_pass(np.array(part, dtype=np.int64), out, series)
            value = [v + x * base**j for v, x in zip(value, out.tolist())]
    return value


class TestSeriesKernel:
    @pytest.mark.parametrize("scale", [1, 11])
    def test_jacobi_cube_matches_naive(self, scale):
        assert _dense(coefficients._jacobi_cube(scale, 299), 300) == naive_eta_coefficients(
            ((scale, 3),), 300
        )

    @pytest.mark.parametrize("scale", [1, 11])
    def test_pentagonal_matches_naive(self, scale):
        assert _dense(coefficients._pentagonal(scale, 299), 300) == naive_eta_coefficients(
            ((scale, 1),), 300
        )

    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_sparse_product_matches_nested_loops(self, n):
        first = coefficients._jacobi_cube(1, n - 1)
        second = coefficients._pentagonal(2, n - 1)
        expected = [0] * n
        for g1, w1 in zip(*first):
            for g2, w2 in zip(*second):
                if g1 + g2 < n:
                    expected[g1 + g2] += int(w1) * int(w2)
        assert coefficients._sparse_product(first, second, n).tolist() == expected

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("name,descriptor,headroom", [
        ("delta", DELTA, None),
        ("delta", DELTA, 1 << 20),
        ("11a", FORM_11A, None),
        ("11a", FORM_11A, 1 << 5),
    ])
    def test_blocked_passes_match_naive(self, monkeypatch, block, name, descriptor, headroom):
        # tiny blocks split every pass into many.  The level-11 table runs its own
        # passes; delta, built by squarings, is checked against the pass route
        # of its 24 pentagonal factors too.  A low headroom runs every pass of
        # that route on several limbs
        monkeypatch.setattr(coefficients, "_PASS_BLOCK", block)
        at_start, past_end, limbs = False, False, []
        shift_pass = coefficients._shift_pass

        def pass_spy(cur, out, series):
            nonlocal at_start, past_end
            n = len(cur)
            for g in series[0].tolist():
                at_start |= 0 < g < n and g % block == 0  # the term starts a block
                past_end |= block <= g < n  # the term lies wholly past the first block
            shift_pass(cur, out, series)

        monkeypatch.setattr(coefficients, "_shift_pass", pass_spy)
        for n in (1, 2, 37, 300):
            oracle = naive_eta_coefficients(ETA_FACTOR_SPECS[name], n)
            assert _pass_route(_PASS_FACTORS[name], n, headroom, limbs) == oracle
            assert expand_eta_product(descriptor, n)._values.tolist() == oracle
        assert at_start and past_end
        assert (max(limbs) > 1) == (headroom is not None)

    def test_pass_weight_other_than_one_raises(self, monkeypatch):
        # delta's eight Jacobi cubes leave six cube passes, weights 2k + 1: the
        # route refuses them before its first pass, and a pass refuses one alone
        shift_pass, calls = coefficients._shift_pass, []
        monkeypatch.setattr(coefficients, "_shift_pass", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="takes weights \\+-1 only"):
            coefficients._eta_values((ETA_FACTOR_SPECS["delta"], 0), 50)
        assert calls == []
        cur, out = np.arange(10), np.empty(10, dtype=np.int64)
        with pytest.raises(ValueError, match="takes weights \\+-1 only, got 3"):
            shift_pass(cur, out, (np.array([0, 1]), np.array([1, 3])))

    def test_int64_guards(self):
        wide = (np.array([0]), np.array([2**32]))
        with pytest.raises(ValueError, match="too large for an exact int64 sparse product"):
            coefficients._sparse_product(wide, wide, 4)

    @pytest.mark.parametrize("name,descriptor", [("delta", DELTA), ("11a", FORM_11A)])
    def test_limb_guard_raises_before_any_pass(self, monkeypatch, name, descriptor):
        # each route's guard on its int64 limb stops the build before the next
        # stage: delta's first squaring product, pushed 0.3 off its integers,
        # before any other transform; the level-11 product, whose max|x| * sum|w|
        # over the two passes would reach 2^63, before the first pass
        oracle = naive_eta_coefficients(ETA_FACTOR_SPECS[name], 100)
        assert expand_eta_product(descriptor, 100)._values.tolist() == oracle
        calls = []
        for stage in ("_shift_pass", "_spot_check"):
            monkeypatch.setattr(coefficients, stage, lambda *a, stage=stage: calls.append(stage))
        if name == "delta":
            irfft = np.fft.irfft

            def perturbed(*args):
                calls.append("irfft")
                return irfft(*args) + 0.3

            monkeypatch.setattr(np.fft, "irfft", perturbed)
            error, message = VerificationError, "FFT product of digits 0 and 0 is off an integer"
        else:
            monkeypatch.setattr(coefficients, "_sparse_product",
                                lambda f, s, n: np.full(n, 1 << 60))
            error, message = ValueError, "too large for exact int64 passes"
        with pytest.raises(error, match=message):
            expand_eta_product(descriptor, 100)
        assert calls == (["irfft"] if name == "delta" else [])

    @settings(max_examples=40, deadline=None)
    @given(_digit_series())
    def test_square_matches_nested_loops(self, digits):
        n = len(digits[0])
        w = coefficients._digit_bits(n)
        expected = _naive_square(digits, n, w)
        out = coefficients._product(digits, digits, n, w)
        assert _recombine(out, w, n).tolist() == expected
        _assert_balanced(out, w)

    def test_square_keeps_the_spectrum_the_next_pair_shares(self, monkeypatch):
        # the 10 pairs of 4 digits, i ascending in even digit groups and
        # descending in odd ones, each share a digit with the next: 10 forward
        # transforms where every pair computing its own would take 16
        calls = {"rfft": 0, "irfft": 0}
        for name, transform in [(name, getattr(np.fft, name)) for name in calls]:
            def counted(*args, name=name, transform=transform):
                calls[name] += 1
                return transform(*args)

            monkeypatch.setattr(np.fft, name, counted)
        n = 300
        w = coefficients._digit_bits(n)
        digits = [np.arange(n) % 5 - 2, np.full(n, 7), np.arange(n) % 3, np.full(n, -1)]
        expected = _naive_square(digits, n, w)
        assert _recombine(coefficients._product(digits, digits, n, w), w, n).tolist() == expected
        assert calls == {"rfft": 10, "irfft": 10}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_square_of_the_shortest_series(self, n):
        w = coefficients._digit_bits(n)
        half = 1 << (w - 1)
        digits = [np.array([-half, half, 3][:n]), np.array([7, -1, -half][:n]),
                  np.array([half, half, half][:n])]
        expected = _naive_square(digits, n, w)
        out = coefficients._product(digits, digits, n, w)
        assert _recombine(out, w, n).tolist() == expected
        _assert_balanced(out, w)

    def test_square_of_the_zero_series(self, monkeypatch):
        w = coefficients._digit_bits(50)
        zero = [np.zeros(50, dtype=np.int64)] * 2
        assert coefficients._product(zero, zero, 50, w) == []
        # the combine of no digits is the zero table, in int64
        monkeypatch.setattr(coefficients, "_product", lambda x, y, n, w: [])
        values = coefficients._eta_values(coefficients._ETA_FACTORS[coefficients.BUILTIN_DELTA], 50)
        assert values.dtype == np.int64 and values.tolist() == [0] * 50

    def test_square_guard_raises_past_float64(self):
        # one bit wider than the widest W whose exact digit products n 4^(W-1)
        # still fit float64's 53 bits; the width the error bound picks is far
        # narrower, and at one bit past it the rounding errors stay near 10^-3
        n = 300
        w = max(w for w in range(1, 30) if n * 4 ** (w - 1) < 1 << 53) + 1
        assert w > coefficients._digit_bits(n)
        rng = np.random.default_rng(3)
        digits = [rng.integers(-(1 << (w - 1)), 1 << (w - 1), size=n) for _ in range(6)]
        with pytest.raises(VerificationError, match="is off an integer"):
            coefficients._product(digits, digits, n, w)

    @pytest.mark.parametrize("shift, raises", [(0.2, False), (0.3, True)])
    def test_square_guard_at_a_quarter(self, monkeypatch, shift, raises):
        # one entry of every FFT product pushed off its integer: below 1/4 it
        # still rounds to the exact square, from 1/4 on the guard refuses it
        _shift_irfft(monkeypatch, shift)
        w = coefficients._digit_bits(40)
        digits = _emitted(np.arange(-20, 20) * 123457, w)
        expected = _naive_square(digits, 40, w)
        if raises:
            with pytest.raises(VerificationError, match="is off an integer"):
                coefficients._product(digits, digits, 40, w)
        else:
            assert _recombine(coefficients._product(digits, digits, 40, w), w, 40).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(_digit_series_pair())
    def test_product_matches_nested_loops(self, factors):
        x, y = factors
        n = len(x[0])
        w = coefficients._digit_bits(n)
        out = coefficients._product(x, y, n, w)
        assert _recombine(out, w, n).tolist() == _naive_product(x, y, n, w)
        _assert_balanced(out, w)

    @pytest.mark.parametrize("digits", [1, 3])
    def test_layer_times_indicator_keeps_the_indicator_spectrum(self, monkeypatch, digits):
        # a count step: every digit of a D-digit layer pairs with the one digit
        # of the indicator, whose spectrum is kept for all of them: D + 1
        # forward transforms and D inverse ones
        calls = {"rfft": 0, "irfft": 0}
        for name, transform in [(name, getattr(np.fft, name)) for name in calls]:
            def counted(*args, name=name, transform=transform):
                calls[name] += 1
                return transform(*args)

            monkeypatch.setattr(np.fft, name, counted)
        n = 300
        w = coefficients._digit_bits(n)
        layer = [np.arange(n) % 5 - 2, np.full(n, 7), np.arange(n) % 3][:digits]
        indicator = [(np.arange(n) % 7 == 3).astype(np.int8)]
        out = coefficients._product(layer, indicator, n, w)
        assert _recombine(out, w, n).tolist() == _naive_product(layer, indicator, n, w)
        assert calls == {"rfft": digits + 1, "irfft": digits}

    @pytest.mark.parametrize("shift, raises", [(0.2, False), (0.3, True)])
    def test_product_guard_at_a_quarter(self, monkeypatch, shift, raises):
        # the square's guard on two different factors of 2 and 3 digits
        _shift_irfft(monkeypatch, shift)
        w = coefficients._digit_bits(40)
        x = _emitted(np.arange(-20, 20) * 123457, w)
        y = _emitted(np.arange(40) ** 11 - 7, w)
        assert (len(x), len(y)) == (2, 3)
        if raises:
            with pytest.raises(VerificationError, match="is off an integer"):
                coefficients._product(x, y, 40, w)
        else:
            assert _recombine(coefficients._product(x, y, 40, w), w, 40).tolist() == (
                _naive_product(x, y, 40, w))

    def test_zero_factor_gives_no_digits(self):
        n = 50
        w = coefficients._digit_bits(n)
        y = _emitted(np.arange(n) ** 3 - 25, w)
        zero = [np.zeros(n, dtype=np.int64)]
        for x in (zero, []):
            assert coefficients._product(x, y, n, w) == []
            assert coefficients._product(y, x, n, w) == []

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-_INT64_MAX - 1, _INT64_MAX, -1, 0]),
                              st.integers(-_INT64_MAX - 1, _INT64_MAX)), min_size=1, max_size=300),
           st.integers(min_value=2, max_value=29))
    def test_digits_are_balanced_and_minimal(self, values, w):
        digits = _emitted(values, w)
        _assert_balanced(digits, w)
        assert _recombine(digits, w, len(values)).tolist() == values

    def test_final_words_combine_into_exact_ints(self, monkeypatch):
        # g = 62 // W digits make one int64 word; up to three words join top
        # first into Python ints, and one word comes back as the int64 array itself
        n = 6
        w = coefficients._digit_bits(n)
        g, half = 62 // w, 1 << (w - 1)
        rng = np.random.default_rng(62)
        for count in (g - 1, g, g + 1, 2 * g, 2 * g + 1):
            mixed = rng.integers(-half, half + 1, size=(count, n))
            mixed[:, 0] = -half  # every digit at the lower edge
            mixed[:, 1] = half  # every digit at the upper edge
            mixed[:, 2:4] = 0
            mixed[g - 1::g, 2] = half  # every word at 2^(g W - 1)
            mixed[g - 1::g, 3] = -half  # every word at -2^(g W - 1)
            negative = -rng.integers(0, half + 1, size=(count, n))
            negative[-1] = -half  # an all-negative series
            for digits in (list(mixed), list(negative)):
                monkeypatch.setattr(coefficients, "_product", lambda x, y, m, v, digits=digits: digits)
                values = coefficients._eta_values(
                    coefficients._ETA_FACTORS[coefficients.BUILTIN_DELTA], n)
                assert values.dtype == (np.int64 if count <= g else object)
                assert values.tolist() == _recombine(digits, w, n).tolist()

    def test_transform_is_the_shortest_smooth_length(self):
        smooth = {2**a * 3**b * 5**c: a + 2 * b + 3 * c
                  for a in range(13) for b in range(8) for c in range(6)}
        for m in range(1, 3000):
            size, k = coefficients._transform(m)
            assert size == min(L for L in smooth if L >= m) and k == smooth[size]

    def test_digit_width_keeps_the_error_bound(self):
        # n 4^(W-1) (13 k + 3) < 2^51 at W, and not at W + 1
        for n in (1, 2, 3, 300, 70_000, 10**6, coefficients.MAX_TABLE):
            w = coefficients._digit_bits(n)
            size, k = coefficients._transform(2 * n - 1)
            assert size >= 2 * n - 1
            assert n * 4 ** (w - 1) * (13 * k + 3) < 1 << 51 <= n * 4**w * (13 * k + 3)

    def test_tables_pinned_by_digest(self, delta_100k, delta_1m, f11a_1m):
        # recorded from an independent build: one pentagonal pass per unit of power and modulus
        assert _digest(delta_100k._values) == (
            "eb660e7a4275e4b585754de8e3ce645f89b5844062d0490937b76e788276a318"
        )
        # recorded from the shifted-add limb passes that the FFT squarings replaced
        assert _digest(delta_1m._values) == (
            "bae012f6396909a9df7fcf2e7bd2c4bf854012f9c8c2efe4790df5716d04e548"
        )
        assert _digest(f11a_1m._values) == _F11A_1M_DIGEST

    def test_delta_peak_memory(self):
        # the shifted-add limb passes this build replaced peaked at 4.73 MiB here;
        # the squarings keep two spectra alive at a time
        tracemalloc.start()
        try:
            expand_eta_product(DELTA, 70_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 4.73 * 2**20

    def test_peak_memory_is_two_arrays(self):
        n = 2 * 10**5
        tracemalloc.start()
        try:
            expand_eta_product(FORM_11A, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * n

    def test_table_limit_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(coefficients, "MAX_TABLE", 1000)
        message = "a coefficient table to n_max = 1001 exceeds the 1000 limit"
        with pytest.raises(MemoryGuardError, match=message):
            expand_eta_product(DELTA, 1001)
        with pytest.raises(MemoryGuardError, match=message):
            hecke_extend(DELTA, {}, 1001)
        assert expand_eta_product(DELTA, 1000).n_max == 1000


class TestHeckeExtend:
    def test_cross_oracle_equivalence(self, delta_1k, f11a_1k):
        for table in (delta_1k, f11a_1k):
            ap = {p: table.a(p) for p in table.primes()}
            rebuilt = hecke_extend(table.descriptor, ap, table.n_max)
            assert all(rebuilt.a(n) == table.a(n) for n in range(1, table.n_max + 1))

    def test_prime_power_recursion_values(self, delta_1k):
        # a(4) = a(2)^2 - 2^11 a(1), a(6) = a(2) a(3)
        assert delta_1k.a(4) == delta_1k.a(2) ** 2 - 2**11
        assert delta_1k.a(4) == -1472
        assert delta_1k.a(6) == delta_1k.a(2) * delta_1k.a(3) == -6048

    def test_level_prime_power_rule(self, f11a_1k):
        # at p = 11 (dividing the level) powers multiply plainly
        assert f11a_1k.a(121) == f11a_1k.a(11) ** 2

    def test_missing_prime_rejected(self):
        ap = {2: -24, 3: 252}
        with pytest.raises(IntegrityError, match="missing prime"):
            hecke_extend(DELTA, ap, 10)

    def test_a1_is_one(self):
        table = hecke_extend(DELTA, {2: -24}, 2)
        assert table.a(1) == 1

    def test_rebuild_of_the_pinned_level_11_table(self, f11a_1m):
        ap = dict(zip(f11a_1m.primes(), f11a_1m.iter_a(f11a_1m.primes())))
        assert _digest(hecke_extend(FORM_11A, ap, 10**6)._values) == _F11A_1M_DIGEST

    @pytest.mark.parametrize("form", [DELTA, FORM_11A], ids=["delta", "11a"])
    def test_rebuild_at_walk_block_edges(self, form):
        # each block of the spf walk reads only the blocks below it
        B = primes._WALK_BLOCK
        for n in (1, 2, 3, 4, 7, 8, 9, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 3 * B + 1):
            table = expand_eta_product(form, n)
            ap = dict(zip(table.primes(), table.iter_a(table.primes())))
            assert hecke_extend(form, ap, n)._values.tolist() == table._values.tolist()

    def test_rebuild_peak_memory(self):
        # the values, the spf table and one block of rows: no full-length pending arrays
        n = 2 * 10**5
        table = expand_eta_product(FORM_11A, n)
        ap = dict(zip(table.primes(), table.iter_a(table.primes())))
        tracemalloc.start()
        try:
            hecke_extend(FORM_11A, ap, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table._values.nbytes

    def test_values_beyond_int64_storage_rejected(self):
        # 2 * 16^6 < 2^63 selects int64 storage; a(4) = 2^80 - 2^11 does not fit it
        ap = {p: 1 for p in primes_up_to(16)} | {2: 2**40}
        with pytest.raises(IntegrityError, match="does not fit int64"):
            hecke_extend(DELTA, ap, 16)


def _factored_value(table, n):
    """a(n) by trial division of n and the prime-power recursion at each factor."""
    val, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        val *= table.prime_power(p, e)
        p += 1
    return val


class TestValueAt:
    def test_within_table(self, delta_1k):
        assert delta_1k.value_at(961) == delta_1k.a(961)

    def test_prime_square_beyond_table(self, f11a_1k):
        q = 997
        expected = f11a_1k.a(q) ** 2 - q  # weight 2: p^(2k-1) = p
        assert f11a_1k.value_at(q * q) == expected

    def test_square_of_the_largest_table_prime(self, delta_1k, f11a_1k):
        for table in (delta_1k, f11a_1k):
            q = table.primes()[-1]
            expected = table.prime_power(q, 2)
            assert table.value_at(q * q) == expected == _factored_value(table, q * q)

    def test_square_of_a_composite_beyond_the_table(self, delta_1k):
        # 999 = 3^3 * 37: the square is 729 * 37^2, with 37^2 = 1369 beyond the table
        expected = delta_1k.a(729) * delta_1k.prime_power(37, 2)
        assert delta_1k.value_at(999**2) == expected == _factored_value(delta_1k, 999**2)

    def test_composite_beyond_table(self, f11a_1k):
        q, p = 991, 7
        assert f11a_1k.value_at(2 * p * q) == f11a_1k.a(2) * f11a_1k.a(p) * f11a_1k.a(q)

    def test_unreachable_prime_factor(self, f11a_1k):
        with pytest.raises(TableTooSmallError):
            f11a_1k.value_at(1009 * 1013)  # both factors beyond n_max

    @pytest.mark.parametrize("n, message", [
        (101, "index 101 has prime factor 101 beyond table bound 100"),
        (202, "index 202 has prime factor 101 beyond table bound 100"),
        (10403, "index 10403 has no prime factor <= 100"),  # 101 * 103
        (10201, "index 10201 has no prime factor <= 100"),  # 101^2
        (20806, "cofactor 10403 of index 20806 has no prime factor <= 100"),
    ])
    def test_beyond_table_message_names_only_primes(self, f11a_1k, n, message):
        with pytest.raises(TableTooSmallError) as exc:
            f11a_1k.truncate(100).value_at(n)
        assert str(exc.value) == message

    def test_index_bounds(self, delta_1k):
        with pytest.raises(ValueError):
            delta_1k.value_at(0)
        with pytest.raises(TableTooSmallError):
            delta_1k.a(1001)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=31), st.integers(min_value=2, max_value=31))
def test_multiplicativity_property(delta_1k, m, n):
    if gcd(m, n) == 1:
        assert delta_1k.a(m * n) == delta_1k.a(m) * delta_1k.a(n)


def _with_value(table, n, value):
    values = [table.a(i) for i in range(1, table.n_max + 1)]
    values[n - 1] = value
    return CoeffTable(table.descriptor, table.n_max, values)


def _matches_scalar_oracle(table):
    report = check_identities(table)
    assert report == naive_check_identities(table)
    for entries in (report.hecke_violations, report.multiplicativity_violations,
                    report.deligne_violations, report.divisor_bound_violations):
        assert all(type(v) is int for entry in entries for v in entry)
    return report


class TestCheckIdentities:
    def test_matches_scalar_oracle(self, delta_1k, f11a_1k, delta_1300):
        assert delta_1300._values.dtype == object
        deligne_bad = CoeffTable(DELTA, 10, [1, 100] + [0] * 8)
        for table in (delta_1k, f11a_1k, delta_1300, _with_value(delta_1k, 4, 0), deligne_bad):
            _matches_scalar_oracle(table)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=1000),
           st.integers(min_value=-3, max_value=3) | st.integers(min_value=-2**62, max_value=2**62))
    def test_one_changed_coefficient_matches_scalar_oracle(self, delta_1k, n, shift):
        _matches_scalar_oracle(_with_value(delta_1k, n, delta_1k.a(n) + shift))

    def test_divisor_bound_at_equality(self):
        # d(4) * 4^(11/2) = 3 * 2^11 = 6144 exactly: equality keeps the bound
        for value, violations in ((6144, []), (6145, [(4, 6145)])):
            report = _matches_scalar_oracle(CoeffTable(DELTA, 4, [1, -24, 252, value]))
            assert report.divisor_bound_violations == violations

    def test_deligne_bound_at_the_integer_edge(self):
        p = 10007
        edge = isqrt(4 * p**11)  # the largest a(p) with a(p)^2 <= 4 p^11
        for value, violations in ((edge, []), (edge + 1, [(p, edge + 1)])):
            values = [1] + [0] * (p - 1)
            values[p - 1] = value
            report = _matches_scalar_oracle(CoeffTable(DELTA, p, values))
            assert report.deligne_violations == report.divisor_bound_violations == violations

    def test_values_and_bounds_beyond_float_range(self):
        # 2^1100 is no float64; at weight 2000, n^(1999/2) overflows for n >= 3
        heavy = NewformDescriptor(2000, 1, "heavy")
        for descriptor in (NewformDescriptor(400, 1, "light"), heavy):
            for values in ([1, 2**1100, 0, 0], [1, 0, -(2**1100), 0], [1, 0, 0, 0]):
                _matches_scalar_oracle(CoeffTable(descriptor, 4, values))
        report = _matches_scalar_oracle(CoeffTable(heavy, 4, [1, 0, 2**1000, 2**1500]))
        assert report.deligne_violations == report.divisor_bound_violations == []

    def test_clean_tables(self, delta_1k, f11a_1k, delta_1300):
        by_hand = CoeffTable(DELTA, 1300, [delta_1300.a(n) for n in range(1, 1301)])
        assert by_hand._values.dtype == object
        for table in (delta_1k, f11a_1k, by_hand):
            report = check_identities(table)
            assert report.ok, report.summary()

    def test_detects_tampering(self, delta_1k):
        # a(4) := 0 breaks the relation at 4 and at the two n whose relation reads a(4)
        report = check_identities(_with_value(delta_1k, 4, 0))
        assert report.hecke_violations == [(4, 0, -1472), (8, 84480, 49152), (16, 987136, -2027520)]
        assert report.multiplicativity_violations == []
        assert not report.ok

    @pytest.mark.parametrize("n", [4, 6, 12, 121, 420, 512, 961, 999, 1000])
    def test_composite_off_by_one_reported_at_n(self, delta_1k, f11a_1k, n):
        for table in (delta_1k, f11a_1k):
            report = check_identities(_with_value(table, n, table.a(n) + 1))
            first = min(report.hecke_violations + report.multiplicativity_violations)
            assert first == (n, table.a(n) + 1, table.a(n))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(primes_up_to(500)))
    def test_prime_off_by_one_reported_at_twice_the_prime(self, delta_1k, f11a_1k, p):
        # the first composite whose relation reads a(p) is 2p, where a(2p) = a(2) a(p)
        for table in (delta_1k, f11a_1k):
            report = check_identities(_with_value(table, p, table.a(p) + 1))
            entries = report.hecke_violations + report.multiplicativity_violations
            assert min(entries)[0] == 2 * p

    def test_entries_past_int64_are_exact(self, delta_1k):
        report = _matches_scalar_oracle(_with_value(delta_1k, 2, 2**62 - 1))
        # a(2)^2 passes 2^63, so the relation at 4 is evaluated in Python ints
        assert report.hecke_violations[0] == (4, -1472, (2**62 - 1) ** 2 - 2**11)

    def test_divisor_violations_across_a_walk_block_edge(self):
        # 8191 = 2^13 - 1 (a prime) closes one spf_blocks block and 8192 opens
        # the next; each block screens its own rows, and both are reported in order
        table = expand_eta_product(FORM_11A, 9000)
        edges = [int(n[-1]) for n, _, _ in primes.spf_blocks(primes.smallest_prime_factors(9000))]
        assert 8191 in edges
        values = table._values.tolist()
        values[8190], values[8191] = 10**6, -(10**6)
        report = check_identities(CoeffTable(table.descriptor, 9000, values))
        assert report.divisor_bound_violations == [(8191, 10**6), (8192, -(10**6))]
        assert report.deligne_violations == [(8191, 10**6)]
        assert check_identities(table).ok

    def test_detects_deligne_violation(self):
        values = [1, 100] + [0] * 8
        bad = CoeffTable(DELTA, 10, values)
        report = check_identities(bad)
        assert (2, 100) in report.deligne_violations


def _running_maximum_records(values):
    """Reference for positive_records: the pure-Python running-maximum loop."""
    records, indices = [], []
    best = None
    for i, v in enumerate(values):
        if best is None or v > best:
            best = v
            records.append(v)
            indices.append(i + 1)
    return records, indices


class TestStorage:
    def test_dtype_follows_the_coefficient_bound(self, delta_1k, f11a_1k, delta_1300):
        # 2 * 1290^6 < 2^63 <= 2 * 1291^6
        assert expand_eta_product(DELTA, 1290)._values.dtype == np.int64
        assert expand_eta_product(DELTA, 1291)._values.dtype == object
        assert delta_1300.truncate(1290)._values.dtype == np.int64
        ap = {p: delta_1300.a(p) for p in delta_1300.primes()}
        assert hecke_extend(DELTA, ap, 1300)._values.dtype == object
        for table in (delta_1k, f11a_1k, hecke_extend(DELTA, ap, 1000)):
            assert table._values.dtype == np.int64

    def test_records_match_running_maximum_loop(self, delta_1k, f11a_1k, delta_1300):
        for table in (delta_1k, f11a_1k, delta_1300):
            values = [table.a(n) for n in range(1, table.n_max + 1)]
            records, indices = table.positive_records()
            assert (records, indices) == _running_maximum_records(values)
            assert all(type(v) is int for v in records + indices)
            assert table.max_positive() == records[-1] == max(values)

    def test_iter_a_reads_chunk_by_chunk(self, monkeypatch, f11a_1k, delta_1300):
        monkeypatch.setattr(coefficients, "_READ_CHUNK", 7)
        for table in (f11a_1k, delta_1300):
            ns = [1000, 1, 2, 997, 13, 13, *range(500, 530)]  # any order, repeats allowed
            got = list(table.iter_a(ns))
            assert got == [table.a(n) for n in ns]
            assert all(type(v) is int for v in got)
            assert list(table.iter_a([])) == []
            for bad in ([5, table.n_max + 1], [0, 5], [-3]):
                with pytest.raises(TableTooSmallError, match="outside table range"):
                    next(table.iter_a(bad))

    def test_value_beyond_int64_rejected(self):
        values = [1, -24, 252, 2**63]
        with pytest.raises(IntegrityError, match="int64"):
            CoeffTable(DELTA, 4, values)
        values[3] = -(2**70)
        with pytest.raises(IntegrityError, match="int64"):
            CoeffTable(DELTA, 4, values)


class TestDescriptorFiles:
    def _write(self, tmp_path, text):
        path = tmp_path / "form.nft"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path, f11a_1k):
        path = tmp_path / "f11a.nft"
        save_prime_table(f11a_1k, path)
        descriptor, coeffs, pmax = load_newform(path)
        assert (descriptor.weight, descriptor.level) == (2, 11)
        assert pmax == 1000
        assert coeffs == {p: f11a_1k.a(p) for p in f11a_1k.primes()}
        rebuilt = hecke_extend(descriptor, coeffs, 1000)
        assert all(rebuilt.a(n) == f11a_1k.a(n) for n in range(1, 1001))

    def test_minimal_file(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n# comment\n2 -24\n")
        descriptor, coeffs, pmax = load_newform(path)
        assert (descriptor.weight, descriptor.level) == (12, 1)
        assert coeffs == {2: -24} and pmax == 2

    def test_unicode_minus_accepted(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n2 −24\n")
        assert load_newform(path)[1] == {2: -24}

    def test_deligne_violation_rejected(self, tmp_path):
        # 100^2 = 10000 > 4 * 2^11 = 8192
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n2 100\n")
        with pytest.raises(IntegrityError, match="size bound"):
            load_newform(path)

    def test_empty_coefficients_rejected(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n")
        with pytest.raises(IntegrityError, match="no prime coefficients"):
            load_newform(path)

    def test_coverage_gap_rejected(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 5\n2 -24\n5 4830\n")
        with pytest.raises(IntegrityError, match="gap.*3"):
            load_newform(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n2 x\n")
        with pytest.raises(FormatError, match="line 4"):
            load_newform(path)

    def test_non_prime_rejected(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 4\n2 -24\n4 10\n")
        with pytest.raises(FormatError, match="not prime"):
            load_newform(path)

    def test_out_of_order_rejected(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 3\n3 252\n2 -24\n")
        with pytest.raises(FormatError, match="out of order"):
            load_newform(path)

    def test_first_error_in_line_order_is_raised(self, tmp_path):
        # line 5 is not prime and line 6 is out of order
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 5\n2 -24\n4 10\n3 252\n")
        with pytest.raises(FormatError, match="line 5: 4 is not prime"):
            load_newform(path)

    def test_primality_beyond_pmax(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n2 -24\n3 252\n7 -16744\n")
        assert load_newform(path)[1] == {2: -24, 3: 252, 7: -16744}
        path = self._write(tmp_path, "weight: 12\nlevel: 1\npmax: 2\n2 -24\n9 0\n")
        with pytest.raises(FormatError, match="line 5: 9 is not prime"):
            load_newform(path)
        for line in ("1 1", "0 1", "-3 1"):
            path = self._write(tmp_path, f"weight: 12\nlevel: 1\npmax: 5\n{line}\n")
            with pytest.raises(FormatError, match="line 4: .* is not prime"):
                load_newform(path)

    def test_primality_without_pmax(self, tmp_path):
        # the missing header is found after the lines, so the bad line wins
        path = self._write(tmp_path, "weight: 12\nlevel: 1\n2 -24\n4 10\n")
        with pytest.raises(FormatError, match="line 4: 4 is not prime"):
            load_newform(path)

    def test_missing_header_rejected(self, tmp_path):
        path = self._write(tmp_path, "weight: 12\npmax: 2\n2 -24\n")
        with pytest.raises(FormatError, match="level"):
            load_newform(path)


class TestStructuralSpeed:
    """The table checks read the value array and the shared sieve: no
    per-index ``CoeffTable.a`` scan and no per-line Miller-Rabin."""

    @pytest.fixture(scope="class")
    def delta_10k(self):
        return expand_eta_product(DELTA, 10**4)

    def test_check_identities_reads_the_array(self, delta_10k, monkeypatch):
        calls = []
        a = CoeffTable.a
        monkeypatch.setattr(CoeffTable, "a", lambda self, n: calls.append(n) or a(self, n))
        assert check_identities(delta_10k).ok
        assert len(calls) < 200

    def test_loader_and_value_at_use_the_sieve(self, delta_10k, monkeypatch, tmp_path):
        path = tmp_path / "delta.nft"
        save_prime_table(delta_10k, path)
        calls = []
        is_prime = coefficients.is_prime
        monkeypatch.setattr(coefficients, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert load_newform(path)[1] == {p: delta_10k.a(p) for p in delta_10k.primes()}
        q = delta_10k.primes()[-1]
        assert delta_10k.value_at(q * q) == delta_10k.prime_power(q, 2)
        assert calls == []
