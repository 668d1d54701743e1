"""Exact products of integer series by float64 FFTs.

``product(x, y, n)`` and ``square(x, n, times)`` take exact integer arrays
and return the product, or x^(2^times), truncated to n terms: int64 when one
word holds every value, exact Python ints otherwise.  Inside, a series is
held as balanced W-bit digit series, value = sum_i d_i 2^(W i), from the
first product to the last, and ``_product`` multiplies digit series by real
FFTs.  A stated float64 error bound (``_digit_bits``, with its two premises)
sizes W (``_plan``) so that every rounding error stays below 1/4, and a guard
checks that again on every inverse transform.  ``numpy.fft`` is reached at
call time, so importing the package does not load it.
"""

import numpy as np

from .errors import VerificationError


def product(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """The exact product of the integer series x and y, truncated to n terms."""
    w, m, size = _plan(n, square=False)
    x, y = _digits(x, w), _digits(y, w)  # frees arrays the caller passed as temporaries
    return _combine(_product(x, y, n, w, m, size), w, n)


def square(x: np.ndarray, n: int, times: int) -> np.ndarray:
    """x squared ``times`` times, x^(2^times), truncated to n terms."""
    w, m, size = _plan(n, square=True)
    x = _digits(x, w)  # frees an array the caller passed as a temporary
    for _ in range(times):
        x = _product(x, x, n, w, m, size)
    return _combine(x, w, n)


def _plan(n: int, square: bool) -> tuple[int, int, int]:
    """(w, m, size): the digit width, ``_group_size`` and the FFT length for n
    terms.  A square runs one bit narrower than ``_digit_bits(n)``, where m = 6
    ordered products share an inverse transform (at 7 * 10^4 and 10^6), not 1;
    a product at the full width, where a one-digit factor (the count step's
    indicator) leaves one product per group and W - 1 would only add digits."""
    size, k = _transform(2 * n - 1)
    w = _digit_bits(n, k) - square
    return w, _group_size(n, w, k), size


def _transform(m: int) -> tuple[int, int]:
    """The shortest FFT length L = 2^a 3^b 5^c >= m, and k = a + 2 b + 3 c: the
    radix-2 levels of the length 2^k >= L that pads each radix-3 or radix-5
    pass to a radix-4 or radix-8 one."""
    sizes = []
    for c in range(m.bit_length()):
        for b in range(m.bit_length()):
            base = 3**b * 5**c
            a = (-(-m // base) - 1).bit_length()
            sizes.append((base << a, a + 2 * b + 3 * c))
    return min(sizes)


def _digit_bits(n: int, k: int) -> int:
    """Width W of the balanced digits |d| <= 2^(W-1) that ``_product`` takes and
    returns series of n terms in: the largest W with n 4^(W-1) (13 k + 3) <
    2^51, k from ``_transform(2 n - 1)``, the grouped bound below at m = 1.

    Percival (Math. Comp. 72, 2003, Thm 5.1) bounds the error of the FFT
    product of x and y of length 2^k by ||x|| ||y|| ((1 + e)^(3k)
    (1 + sqrt(5) e)^(3k+1) (1 + b)^(3k) - 1) < ||x|| ||y|| e (13 k + 3), with
    e = 2^-53.  Two premises carry it to the transforms used here; neither is
    checked in code:

    * the twiddle factors are correct to b <= e: a hypothesis of the theorem,
      taken to hold for numpy's pocketfft;
    * a radix-3 or radix-5 pass errs no more than the radix-4 or radix-8 pass
      that pads it, so a length 2^a 3^b 5^c counts as 2^k, k = a + 2 b + 3 c
      (``_transform``): the theorem is stated for radix 2, and this count is
      the module's own.

    A grouped inverse transform takes the sum of the spectra of m ordered
    products x_t y_t.  Each product's forward transforms and pointwise product
    err as in the theorem, and the inverse transform errs in proportion to the
    norm of its input, at most the sum of the products' norms; so those terms
    add up to e (13 k + 3) sum_t ||x_t|| ||y_t||.  The m - 1 complex
    additions of the spectra add at most (m - 1) e sum_t ||x_t|| ||y_t||
    more: the + m of the bound.  Digit series have ||x_t|| ||y_t|| <=
    n 4^(W-1), so when n m 4^(W-1) (13 k + 2 + m) < 2^51 every rounding error
    stays below 1/4 and every exact value below 2^51.
    """
    w = 1
    while n * 4**w * (13 * k + 3) < 1 << 51:
        w += 1
    return w


def _group_size(n: int, w: int, k: int) -> int:
    """The most ordered digit products m per inverse transform at width w: the
    largest m with n m 4^(w-1) (13 k + 2 + m) < 2^51 (``_digit_bits``), else 1."""
    m = 1
    while n * (m + 1) * 4 ** (w - 1) * (13 * k + 3 + m) < 1 << 51:
        m += 1
    return m


def _emit(carry: np.ndarray, w: int) -> np.ndarray:
    """Take the balanced low w bits d in [-2^(w-1), 2^(w-1)) off the int64 or
    object array ``carry`` in place, carry = (carry - d) / 2^w, and return d
    in the smallest integer dtype that holds it.  Exact for every int64: carry
    + 2^(w-1) may wrap, but not in its low w bits."""
    half = 1 << (w - 1)
    d = carry + half
    d &= (1 << w) - 1
    d -= half
    carry >>= w
    carry += d < 0  # (carry - d) / 2^w = floor(carry / 2^w) + [d < 0]
    return d.astype(np.min_scalar_type(-half))


def _product(x: list[np.ndarray], y: list[np.ndarray], n: int, w: int, m: int,
             size: int) -> list[np.ndarray]:
    """The exact product, truncated to n terms, of the series sum_i x[i]
    2^(w i) and sum_j y[j] 2^(w j), each given as digit series |d| <= 2^(w-1)
    of n terms; as balanced w-bit digit series, top zero digits dropped, so a
    zero product is [].  ``y is x`` squares.  (w, m, size) is a ``_plan``.

    Digit group s, sum_{i+j=s} x_i y_j, takes the pairs (i, j), i <= j in a
    square, and counts each as one ordered product, or two when a square
    pair has i != j (d_i d_j + d_j d_i; a square's m >= 2 holds both).  Each
    digit's spectrum is computed once, at the first group that reads it, and
    freed after the last; the pair that reads a spectrum for the last time
    multiplies into it in place.  The group's weighted products sum in the
    frequency domain, one inverse transform per chunk of at most m ordered
    products.  A transform more than 1/4 off an integer raises
    VerificationError naming the group and its pairs; otherwise it rounds
    into one carried int64 array (a chunk is below 2^51, the carry far below
    2^63), and once group s is in, ``_emit`` takes output digit s off it.
    """
    square, top = y is x, len(x) + len(y) - 1
    spectra: dict[int, np.ndarray] = {}  # x_i's under key i, y_j's under ~j (j in a square)

    def last(u: int) -> int:  # the last group that reads spectrum u
        return u + len(y) - 1 if u >= 0 else ~u + len(x) - 1

    def spectrum(u: int) -> np.ndarray:
        if u not in spectra:
            spectra[u] = np.fft.rfft(x[u] if u >= 0 else y[~u], size)
        return spectra[u]

    carry, out = np.zeros(n, dtype=np.int64), []
    while len(out) < top or carry.any():
        s = len(out)
        chunks, total = [], m  # as if full, so that the first pair opens a chunk
        for i in range(max(0, s - len(y) + 1), min(s // 2 if square else s, len(x) - 1) + 1):
            c = 2 if square and 2 * i != s else 1
            if total + c > m:
                chunks.append([])
                total = 0
            chunks[-1].append((i, s - i, c))
            total += c
        for chunk in chunks:
            acc = None
            for i, j, c in chunk:
                u, v = i, j if square else ~j
                a, b = spectrum(u), spectrum(v)
                done = [spectra.pop(t) for t in {u, v} if last(t) == s]
                if done:  # the product overwrites a spectrum no later group reads
                    f = done[0]
                    f *= b if f is a else a
                else:
                    f = a * b
                del a, b, done
                if c != 1:
                    f *= c
                acc = f if acc is None else np.add(acc, f, out=acc)
                del f
            z = np.fft.irfft(acc, size)[:n]
            del acc
            r = np.rint(z)
            z -= r
            if np.abs(z, out=z).max() >= 0.25:
                raise VerificationError(f"FFT sum of digit group {s}, pairs "
                                        f"{[(i, j) for i, j, _ in chunk]}, is off an integer")
            del z
            carry += r.astype(np.int64)
            del r
        out.append(_emit(carry, w))
    while out and not out[-1].any():
        out.pop()
    return out


def _digits(x: np.ndarray, w: int) -> list[np.ndarray]:
    """The digits ``_emit`` takes off a copy of the exact ints x until it is 0."""
    if x.dtype.kind == "i" and x.dtype.itemsize * 8 <= w:  # x is one digit (an indicator)
        return [x] if x.any() else []
    carry = x.astype(np.int64 if np.can_cast(x.dtype, np.int64) else object)  # uint64: ints
    return [_emit(carry, w) for _ in iter(carry.any, False)]


def _combine(digits: list[np.ndarray], w: int, n: int) -> np.ndarray:
    """The n exact integers sum_i digits[i] 2^(w i): int64 words of 62 // w digits,
    |word| < 2^62, joined top word first into exact Python ints past one word."""
    g = 62 // w  # digits per word
    words = [sum(d.astype(np.int64) << (w * t) for t, d in enumerate(digits[i:i + g]))
             for i in range(0, len(digits), g)] or [np.zeros(n, dtype=np.int64)]
    value = words.pop()
    while words:
        value = value.astype(object, copy=False)
        value <<= g * w
        value += words.pop()
    return value
