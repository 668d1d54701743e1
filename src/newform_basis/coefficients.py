"""Exact Fourier coefficient tables for integer-coefficient newforms.

Two construction routes are provided and are deliberately independent of
each other so they can cross-check:

* ``expand_eta_product`` multiplies out the eta-product q-expansion of a
  builtin form with truncated sparse series: each eta power splits into
  Jacobi cubes and pentagonal-number series and the two longest multiply
  sparse by sparse.  For the level-11 form the rest run as shifted-add
  passes, each in the narrowest of int16, int32 and int64 that its bound
  max|x| * sum|w| fits, one block of ``_PASS_BLOCK`` output rows at a time so
  that the block being written stays in a per-core L2 cache while the input
  streams past.  Delta is that product eta^6 = (eta^3)^2 squared twice by
  ``_product``: eta^12, then eta^24.
* ``hecke_extend`` rebuilds the full table from prime coefficients alone by
  the one Hecke relation (``_hecke_values``) that ``_spot_check`` and
  ``check_identities`` check: for composite n = p q with p = spf(n),
  a(n) = a(p) a(q) - [p does not divide N, p divides q] p^(2k-1) a(q / p),
  over the ascending blocks of ``spf_blocks``, each reading rows already filled.

All stored coefficients are exact integers.  The sparse product runs in exact
int64 and every pass in the exact dtype its bound picks.  ``_product``, which
delta's squarings and the dense count layers of ``waring_goldbach`` share,
multiplies balanced W-bit digit series, value = sum_i d_i 2^(W i), by real
FFTs: one forward transform per digit, and the products of each digit group
summed in the frequency domain, one inverse transform per chunk of at most m
ordered products.  A stated float64 error bound (``_digit_bits``, with its
two premises) sizes W and m so that every rounding error stays below 1/4,
and a guard checks that again on every inverse transform; the rounded sums
carry into one int64 array that each output digit is taken off, and
``_combine`` joins digits into int64 words and, past one, into exact Python
ints.  The size
checks (``check_identities`` and the loader's Deligne check) compare in
float64 only as a screen: every entry the screen does not clear is decided in
exact integers.

Every table stores its values in one ndarray whose dtype the descriptor
decides: int64 when the coefficient bound 2 * n_max^k fits, object (exact
Python ints) otherwise.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    FormatError,
    IntegrityError,
    MemoryGuardError,
    TableTooSmallError,
    VerificationError,
)
from .primes import (
    MAX_SIEVE,
    divisor_counts,
    is_prime,
    prime_array,
    primes_up_to,
    smallest_prime_factors,
    spf_blocks,
)

BUILTIN_DELTA = "builtin-delta"
BUILTIN_11A = "builtin-11a"

# ((scale, power) pairs, s): the form is q * (prod_{n>=1} (1 - q^(scale*n))^power)^(2^s).
_ETA_FACTORS: dict[str, tuple[tuple[tuple[int, int], ...], int]] = {
    BUILTIN_DELTA: (((1, 6),), 2),  # eta^24 = ((eta^6)^2)^2
    BUILTIN_11A: (((1, 2), (11, 2)), 0),
}

MAX_TABLE = 1 << 27  # longest coefficient table: one 1 GiB int64 array

_INT64 = 1 << 63
# Output rows of one shifted-add pass block: 2^16 int64 rows are 512 KB, so a
# block stays in a 2 MB per-core L2 while its terms add into it.
_PASS_BLOCK = 1 << 16

_BUILTIN_SHAPES = {BUILTIN_DELTA: (12, 1), BUILTIN_11A: (2, 11)}
_READ_CHUNK = 1 << 12  # indices per indexed read of CoeffTable.iter_a


@dataclass(frozen=True)
class NewformDescriptor:
    """Weight, level and coefficient source of one newform."""

    weight: int
    level: int
    source: str

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError(f"weight must be a positive even integer, got {self.weight}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        shape = _BUILTIN_SHAPES.get(self.source)
        if shape is not None and (self.weight, self.level) != shape:
            raise ValueError(
                f"{self.source} requires (weight, level) = {shape}, "
                f"got ({self.weight}, {self.level})"
            )

    @property
    def k(self) -> int:
        """Half the weight; the exponent scale 2k - 1 is derived from it."""
        return self.weight // 2


DELTA = NewformDescriptor(12, 1, BUILTIN_DELTA)
FORM_11A = NewformDescriptor(2, 11, BUILTIN_11A)

_BUILTIN_NAMES = {"delta": DELTA, "11a": FORM_11A}


def builtin_descriptor(name: str) -> NewformDescriptor:
    """Descriptor for a builtin form name ('delta' or '11a')."""
    try:
        return _BUILTIN_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown builtin form {name!r}; choose from {sorted(_BUILTIN_NAMES)}")


def _storage(descriptor: NewformDescriptor, n_max: int, values) -> np.ndarray:
    """values as a table to n_max stores them: int64 if 2 * n_max^k < 2^63, else object."""
    bound = 2 * n_max**descriptor.k
    try:
        return np.asarray(values, dtype=np.int64 if bound < _INT64 else object)
    except OverflowError:
        raise IntegrityError(
            f"a value does not fit int64, the storage selected by the coefficient "
            f"bound 2 * n_max^k = {bound} < 2^63; corrupt data"
        ) from None


class CoeffTable:
    """Immutable table of coefficients a(1..n_max) for one newform.

    Values are exact ints, stored in one ndarray: int64 when the coefficient
    bound |a(n)| <= d(n) n^((2k-1)/2) <= 2 n^k stays below 2^63 for every
    n <= n_max, object (Python ints) otherwise.  A value that does not fit
    the chosen dtype raises IntegrityError.  Construction happens in the
    factory functions; instances are safe to share across threads.
    ``value_at`` additionally evaluates indices beyond n_max whenever their
    prime factors stay inside the table, via multiplicativity and the
    prime-power recursion.
    """

    def __init__(self, descriptor: NewformDescriptor, n_max: int, values: Sequence[int]):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if len(values) != n_max:
            raise ValueError(f"expected {n_max} values, got {len(values)}")
        values = _storage(descriptor, n_max, values)
        self.descriptor = descriptor
        self.n_max = n_max
        self._values = values
        self._primes: list[int] | None = None
        self._records: tuple[list[int], list[int]] | None = None
        if int(values[0]) != 1:
            raise IntegrityError("a(1) must be 1 (normalization)")

    @property
    def weight(self) -> int:
        return self.descriptor.weight

    @property
    def level(self) -> int:
        return self.descriptor.level

    @property
    def k(self) -> int:
        return self.descriptor.k

    def __repr__(self):
        return f"CoeffTable({self.descriptor.source}, n_max={self.n_max})"

    def a(self, n: int) -> int:
        """Coefficient a(n) for 1 <= n <= n_max."""
        if not 1 <= n <= self.n_max:
            raise TableTooSmallError(f"index {n} outside table range 1..{self.n_max}")
        return int(self._values[n - 1])

    def iter_a(self, ns) -> Iterator[int]:
        """a(n) for each n of ns, all in 1..n_max, as Python ints.

        One indexed read per _READ_CHUNK indices replaces a call of ``a`` per
        index, and only one chunk's ints are alive at a time.
        """
        idx = np.asarray(ns, dtype=np.int64)
        if len(idx) and not (1 <= idx.min() and idx.max() <= self.n_max):
            raise TableTooSmallError(
                f"indices {idx.min()}..{idx.max()} outside table range 1..{self.n_max}"
            )
        for st in range(0, len(idx), _READ_CHUNK):
            yield from self._values[idx[st:st + _READ_CHUNK] - 1].tolist()

    def primes(self) -> list[int]:
        """All primes <= n_max, ascending (cached)."""
        if self._primes is None:
            self._primes = primes_up_to(self.n_max)
        return self._primes

    def prime_power(self, p: int, r: int) -> int:
        """a(p^r) from a(p): recursion for p not dividing the level, a(p)^r otherwise."""
        if r < 0:
            raise ValueError("exponent must be >= 0")
        ap = self.a(p)
        if self.level % p == 0:
            return ap**r
        prev, cur = 1, ap
        pk = p ** (self.weight - 1)
        for _ in range(r - 1):
            prev, cur = cur, ap * cur - pk * prev
        return cur if r else 1

    def value_at(self, n: int) -> int:
        """a(n) for arbitrary n >= 1, factoring n when it exceeds n_max.

        Raises TableTooSmallError when n has a prime factor beyond the table.
        The message names that prime only when trial division proves the
        unfactored part of n prime; otherwise it says the part has no prime
        factor <= n_max.
        """
        if n < 1:
            raise ValueError("coefficient index must be >= 1")
        if n <= self.n_max:
            return self.a(n)
        primes = self.primes()
        val, rem, i = 1, n, 0
        while rem > self.n_max:
            s = isqrt(rem)
            if s * s == rem and s <= self.n_max:
                j = bisect_left(primes, s)
                if j < len(primes) and primes[j] == s:
                    return val * self.prime_power(s, 2)
            while i < len(primes) and primes[i] <= s and rem % primes[i]:
                i += 1
            if i == len(primes) or primes[i] > s:  # no prime <= min(s, n_max) divides rem
                if i < len(primes) or s <= self.n_max:  # every prime <= s tried: rem is prime
                    raise TableTooSmallError(
                        f"index {n} has prime factor {rem} beyond table bound {self.n_max}"
                    )
                part = f"index {n}" if rem == n else f"cofactor {rem} of index {n}"
                raise TableTooSmallError(f"{part} has no prime factor <= {self.n_max}")
            p, e = primes[i], 0
            while rem % p == 0:
                rem //= p
                e += 1
            val *= self.prime_power(p, e)
        return val * self.a(rem)  # rem is coprime to every stripped prime; a(1) = 1

    def truncate(self, m: int) -> "CoeffTable":
        """Prefix table with the same descriptor and n_max = m."""
        if not 1 <= m <= self.n_max:
            raise ValueError(f"truncation bound {m} outside 1..{self.n_max}")
        return CoeffTable(self.descriptor, m, self._values[:m])

    def max_positive(self) -> int:
        """Largest positive coefficient value in the table."""
        return int(self._values.max())

    def positive_records(self) -> tuple[list[int], list[int]]:
        """Strictly increasing running maxima of a(n) with their indices (cached)."""
        if self._records is None:
            racc = np.maximum.accumulate(self._values)
            pos = np.flatnonzero(self._values == racc)
            pv = self._values[pos]
            keep = np.concatenate(([True], pv[1:] > pv[:-1]))
            self._records = ([int(v) for v in pv[keep]], [int(i) + 1 for i in pos[keep]])
        return self._records


def _jacobi_cube(scale: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """prod (1 - q^(scale*n))^3 up to q^limit as (exponents, weights), by Jacobi's
    identity: sum_{k>=0} (-1)^k (2k+1) q^(scale*k(k+1)/2)."""
    k = np.arange(isqrt(2 * (limit // scale)) + 1, dtype=np.int64)
    e = scale * (k * (k + 1) // 2)
    k = k[e <= limit]
    return e[: len(k)], np.where(k % 2, -(2 * k + 1), 2 * k + 1)


def _pentagonal(scale: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """prod (1 - q^(scale*n)) up to q^limit as (exponents, weights), by Euler's
    pentagonal theorem; exponents ascend and include the constant term."""
    j = np.arange(1, isqrt(limit // scale) + 2, dtype=np.int64)
    e = scale * np.column_stack((j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)).ravel()
    w = np.repeat(np.where(j % 2, -1, 1), 2)
    keep = np.count_nonzero(e <= limit)
    return np.concatenate(([0], e[:keep])), np.concatenate(([1], w[:keep]))


def _sparse_series(factors, limit: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each (scale, power) as power // 3 Jacobi cubes and power % 3 pentagonal
    series, longest first."""
    series = []
    for scale, power in factors:
        series += [_jacobi_cube(scale, limit)] * (power // 3)
        series += [_pentagonal(scale, limit)] * (power % 3)
    return sorted(series, key=lambda s: -len(s[0]))


def _sparse_product(first, second, n: int) -> np.ndarray:
    """Exact int64 product of two sparse series up to q^(n-1): one scatter per
    term of ``first``.  The exponents of ``second`` are distinct, so no index
    repeats within a scatter."""
    (e1, w1), (e2, w2) = first, second
    if int(np.abs(w1).sum()) * int(np.abs(w2).sum()) >= _INT64:
        raise ValueError(f"n_max = {n} too large for an exact int64 sparse product")
    out = np.zeros(n, dtype=np.int64)
    for g, w in zip(e1.tolist(), w1.tolist()):
        cnt = np.searchsorted(e2, n - g)
        out[g + e2[:cnt]] += w * w2[:cnt]
    return out


def _shift_pass(cur, out, series) -> None:
    """out = cur times the sparse series, truncated to len(cur), in the dtype
    of out, which ``_eta_values`` gives cur too.

    Every weight must be +-1; any other raises ValueError.  Exact when
    max|cur| * sum|w| fits that dtype, the bound by which ``_eta_values``
    picks it.  The pass fills ``_PASS_BLOCK`` output rows at a time, adding
    the terms into a block up to the first exponent past its end, so the
    series' exponents must ascend.  The block, 512 KB in int64 and a quarter
    of that in int16, stays in a per-core L2 cache across all its terms while
    ``cur`` streams past; a whole-array add per term would refetch the output
    from L3 every time.
    """
    n = len(cur)
    exps, weights = series[0].tolist(), series[1].tolist()
    for b0 in range(0, n, _PASS_BLOCK):
        b1 = min(b0 + _PASS_BLOCK, n)
        out[b0:b1] = 0
        for g, w in zip(exps, weights):
            if g >= b1:
                break
            lo = max(b0, g)
            src, dst = cur[lo - g:b1 - g], out[lo:b1]
            if w == 1:
                dst += src
            elif w == -1:
                dst -= src
            else:
                raise ValueError(f"a shifted-add pass takes weights +-1 only, got {w}")


def _peak(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


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


def _digit_bits(n: int) -> int:
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
    _, k = _transform(2 * n - 1)
    w = 1
    while n * 4**w * (13 * k + 3) < 1 << 51:
        w += 1
    return w


def _group_size(n: int, w: int) -> int:
    """The most ordered digit products m that ``_product`` sums into one inverse
    transform of series of n terms at width w: the largest m with
    n m 4^(w-1) (13 k + 2 + m) < 2^51 (``_digit_bits``), and 1 when w is
    wider than even m = 1 allows."""
    _, k = _transform(2 * n - 1)
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


def _product(x: list[np.ndarray], y: list[np.ndarray], n: int, w: int) -> list[np.ndarray]:
    """The exact product, truncated to n terms, of the series sum_i x[i]
    2^(w i) and sum_j y[j] 2^(w j), each given as digit series |d| <= 2^(w-1)
    of n terms, w at most ``_digit_bits(n)``; as balanced w-bit digit series,
    top zero digits dropped, so a zero product is [].  ``y is x`` squares.

    Digit group s, sum_{i+j=s} x_i y_j, takes the pairs (i, j), i <= j in a
    square, and counts each as one ordered product, or two when a square
    pair has i != j (d_i d_j + d_j d_i).  Each digit's spectrum is computed
    once, at the first group that reads it, and freed after the last; the
    pair that reads a spectrum for the last time multiplies into it in place.
    The group's products, weighted 1 or 2, sum in the frequency domain, one
    inverse transform per chunk of at most m = ``_group_size(n, w)`` ordered
    products; a pair worth more than m (two at m = 1) is its own chunk and
    doubles after rounding.  A transform more than 1/4 off an integer raises
    VerificationError naming the group and its pairs; otherwise it rounds
    into one carried int64 array, and once group s is in, ``_emit`` takes
    output digit s off the carry.  A rounded chunk is below 2^51, so the
    carry stays far below 2^63.
    """
    size, _ = _transform(2 * n - 1)
    m = _group_size(n, w)
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
            weighted = sum(c for *_, c in chunk) <= m  # else one pair, doubled after rounding
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
                if weighted and c != 1:
                    f *= c
                if acc is None:
                    acc = f
                else:
                    acc += f
                del f
            z = np.fft.irfft(acc, size)[:n]
            del acc
            r = np.rint(z)
            z -= r
            if np.abs(z, out=z).max() >= 0.25:
                raise VerificationError(f"FFT sum of digit group {s}, pairs "
                                        f"{[(i, j) for i, j, _ in chunk]}, is off an integer")
            del z
            if not weighted:
                r *= 2  # d_i d_j + d_j d_i
            carry += r.astype(np.int64)
            del r
        out.append(_emit(carry, w))
    while out and not out[-1].any():
        out.pop()
    return out


def _digits(value: np.ndarray, w: int) -> list[np.ndarray]:
    """The digits ``_emit`` takes off the int64 or object ``value``, in place, until it is 0."""
    return [_emit(value, w) for _ in iter(value.any, False)]


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


def _eta_values(factors, n_max: int) -> np.ndarray:
    """Coefficients 1..n_max of q * (prod (1 - q^(scale*n))^power)^(2^s) for
    factors = ((scale, power) pairs, s), exactly.

    The two longest sparse series multiply in int64; each of the others runs
    as one shifted-add pass.  The weights +-1 and the int64 bound of all the
    passes, max|x| * prod sum|w|, are checked before the first (ValueError).
    Each pass then runs in the narrowest of int16, int32 and int64 that its
    own bound max|x| * sum|w| fits, x its input (level 11 to 10^6: int16,
    then int32), ``_PASS_BLOCK`` rows at a time, and the last one's result is
    copied back into the product's int64 array, whose pages are already
    touched.  For s > 0 ``_digits`` splits the product into balanced W-bit
    digit series, W one bit narrower than ``_digit_bits(n_max)``, so that
    ``_product`` sums m = ``_group_size(n_max, W)`` ordered products per
    inverse transform (6 at 7 * 10^4 and at 10^6) where one would fit at the
    full width; it squares them s times, and ``_combine`` joins the final
    digits into exact integers.
    """
    pairs, squarings = factors
    first, second, *rest = _sparse_series(pairs, n_max - 1)
    value = _sparse_product(first, second, n_max)
    if not all(np.isin(w, (1, -1)).all() for _, w in rest):
        raise ValueError("a shifted-add pass takes weights +-1 only")
    if _peak(value) * prod(int(np.abs(w).sum()) for _, w in rest) >= _INT64:
        raise ValueError(f"n_max = {n_max} too large for exact int64 passes")
    cur = value
    for series in rest:
        bound = _peak(cur) * int(np.abs(series[1]).sum())
        cur = cur.astype(next(t for t in (np.int16, np.int32, np.int64)
                              if bound <= np.iinfo(t).max), copy=False)
        out = np.empty_like(cur)
        _shift_pass(cur, out, series)
        cur = out
        del out  # the next cast then frees this array before its own output is made
    if rest:
        value[:] = cur
    del cur
    if not squarings:
        return value
    w = _digit_bits(n_max) - 1
    digits = _digits(value, w)
    del value
    for _ in range(squarings):
        digits = _product(digits, digits, n_max, w)
    return _combine(digits, w, n_max)


def _check_table_size(n_max: int) -> None:
    """Reject n_max < 1 and, before anything is allocated, n_max > MAX_TABLE."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_TABLE:
        raise MemoryGuardError(
            f"a coefficient table to n_max = {n_max} exceeds the {MAX_TABLE} limit"
        )


def expand_eta_product(descriptor: NewformDescriptor, n_max: int) -> CoeffTable:
    """Coefficient table of a builtin form by direct eta-product expansion.

    Each eta power splits into Jacobi cubes and pentagonal series, and the two
    longest multiply sparse by sparse.  The level-11 form runs the other two
    as shifted-add passes, each exact in the narrowest integer dtype its bound
    allows, filling its output 2^16 rows at a time, a block that stays in a
    per-core L2 cache while all the series' terms add into it.  Delta splits
    eta^6 into balanced digit series, of a width that a stated error bound
    sizes, and squares them twice by ``_product``, exact FFT products that a
    guard on every inverse transform checks (VerificationError); the final
    digits combine into exact integers.

    Rejects non-builtin sources (load the prime table and use hecke_extend
    instead) and n_max < 1; n_max > ``MAX_TABLE`` raises MemoryGuardError
    before anything is allocated.
    """
    _check_table_size(n_max)
    factors = _ETA_FACTORS.get(descriptor.source)
    if factors is None:
        raise ValueError(
            f"source {descriptor.source!r} has no eta product; ingest it with load_newform"
        )
    table = CoeffTable(descriptor, n_max, _eta_values(factors, n_max))
    _spot_check(table)
    return table


def _hecke_values(descriptor: NewformDescriptor, a, p, q) -> np.ndarray:
    """The Hecke relation's a(p q) for int64 rows p (the smallest prime factor
    of p q) and q, from values a with a(n) = a[n - 1].  Exact: in int64 when a
    bound on the operands keeps every row below 2^63, else in Python ints."""
    pk = descriptor.weight - 1
    ap, aq = a[p - 1], a[q - 1]
    hit = (q % p == 0) & (descriptor.level % p != 0)
    ph, ar = p[hit], a[q[hit] // p[hit] - 1]
    if a.dtype == object or (_peak(ap) * _peak(aq)
                             + int(ph.max(initial=1)) ** pk * max(_peak(ar), 1) >= _INT64):
        ap, aq, ph, ar = (x.astype(object) for x in (ap, aq, ph, ar))
    out = ap * aq
    out[hit] -= ph**pk * ar
    return out


def _spot_check(table: CoeffTable) -> None:
    """The Hecke relation at every prime power p^e <= n_max with e >= 2, level
    primes included: a fresh expansion then equals ``hecke_extend`` of its own
    primes there.  Raises VerificationError naming the first n that fails."""
    rows = [(p, p**e) for p in primes_up_to(isqrt(table.n_max))
            for e in range(1, table.n_max.bit_length()) if p ** (e + 1) <= table.n_max]
    p, q = np.array(rows, dtype=np.int64).reshape(-1, 2).T  # n = p q = p^(e + 1)
    n = p * q
    bad = n[table._values[n - 1] != _hecke_values(table.descriptor, table._values, p, q)]
    if len(bad):
        raise VerificationError(f"Hecke relation fails at n={bad.min()}")


def hecke_extend(
    descriptor: NewformDescriptor, prime_coeffs: Mapping[int, int], n_max: int
) -> CoeffTable:
    """Full table from the prime coefficients (every prime <= n_max) by the Hecke
    relation, filled one ``spf_blocks`` block at a time: the composites of a
    block read a(p), a(q) and a(q / p) below its start.  n_max > ``MAX_TABLE``
    raises MemoryGuardError before anything is allocated; a value that does not
    fit int64 storage raises IntegrityError."""
    _check_table_size(n_max)
    primes = prime_array(n_max)
    try:
        ap = [int(prime_coeffs[p]) for p in primes.tolist()]
    except KeyError as missing:
        raise IntegrityError(f"missing prime coefficient a({missing.args[0]})") from None
    vals = _storage(descriptor, n_max, np.zeros(n_max, dtype=np.int64))
    vals[0] = 1
    vals[primes - 1] = _storage(descriptor, n_max, ap)
    for n, p, q in spf_blocks(smallest_prime_factors(n_max)):
        c = q > 1  # the composites
        vals[n[c] - 1] = _storage(descriptor, n_max, _hecke_values(descriptor, vals, p[c], q[c]))
    return CoeffTable(descriptor, n_max, vals)


def _parse_int(token: str, lineno: int) -> int:
    token = token.replace("−", "-")  # tolerate unicode minus
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"expected an integer, got {token!r}", lineno)


def load_newform(path: str | os.PathLike) -> tuple[NewformDescriptor, dict[int, int], int]:
    """Parse a prime-coefficient file.

    Format (UTF-8, line oriented): header lines ``weight: <2k>``,
    ``level: <N>``, ``pmax: <bound>`` in any order, ``#`` comments, then one
    ``<p> <a(p)>`` line per prime in increasing order covering every prime
    up to pmax.  Returns (descriptor, {p: a(p)}, pmax).

    Raises FormatError (with line number) on malformed input and
    IntegrityError on coverage gaps or coefficients failing the squared
    Deligne comparison a(p)^2 <= 4 p^(2k-1) at p not dividing the level.
    Every header precedes the first coefficient line, so that line builds a
    primality lookup to pmax from the shared sieve (``prime_array``); a
    prime above pmax, or any prime when pmax is missing or beyond
    ``MAX_SIEVE``, is tested by ``is_prime``.  The Deligne comparison is
    screened in float64 and decided exactly, like ``check_identities``.
    """
    headers: dict[str, int] = {}
    coeffs: dict[int, int] = {}
    last_p = 0
    flags = None  # flags[n]: n is prime, for 0 <= n <= pmax
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" in line:
                if coeffs:
                    raise FormatError("header after coefficient lines", lineno)
                key, _, rhs = line.partition(":")
                key = key.strip().lower()
                if key not in ("weight", "level", "pmax"):
                    raise FormatError(f"unknown header {key!r}", lineno)
                if key in headers:
                    raise FormatError(f"duplicate header {key!r}", lineno)
                headers[key] = _parse_int(rhs.strip(), lineno)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError("expected '<p> <a(p)>'", lineno)
            p = _parse_int(parts[0], lineno)
            ap = _parse_int(parts[1], lineno)
            if flags is None:  # every header is known by the first coefficient line
                limit = headers.get("pmax", 0)
                limit = limit if 0 <= limit <= MAX_SIEVE else 0
                flags = np.zeros(limit + 1, dtype=bool)
                flags[prime_array(limit)] = True
            if not (flags[p] if 0 <= p < len(flags) else is_prime(p)):
                raise FormatError(f"{p} is not prime", lineno)
            if p <= last_p:
                raise FormatError(f"primes out of order at {p}", lineno)
            last_p = p
            coeffs[p] = ap
    for key in ("weight", "level", "pmax"):
        if key not in headers:
            raise FormatError(f"missing header {key!r}")
    descriptor = NewformDescriptor(headers["weight"], headers["level"], str(path))
    pmax = headers["pmax"]
    if not coeffs:
        raise IntegrityError("no prime coefficients listed")
    covered = set(coeffs)
    for q in primes_up_to(pmax):
        if q not in covered:
            raise IntegrityError(f"coverage gap: prime {q} <= pmax={pmax} missing")
    ps = [p for p in coeffs if descriptor.level % p]
    bad = _size_violations(ps, [coeffs[p] for p in ps], [2] * len(ps), descriptor.weight - 1)
    if bad:
        p, ap = bad[0]
        raise IntegrityError(f"a({p}) = {ap} violates the coefficient size bound; corrupt data")
    return descriptor, coeffs, pmax


def save_prime_table(table: CoeffTable, path: str | os.PathLike) -> None:
    """Write the table's prime coefficients in the ingestion format (atomic)."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"weight: {table.weight}\n")
        fh.write(f"level: {table.level}\n")
        fh.write(f"pmax: {table.n_max}\n")
        for p in table.primes():
            fh.write(f"{p} {table.a(p)}\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class IdentityReport:
    """Violation lists of Python ints, ascending in n; all empty on a valid table.
    A composite n off the Hecke relation gives (n, a(n), expected), a Hecke entry
    when spf(n)^2 | n and a multiplicativity one otherwise; a size entry is (n, a(n))."""

    n_max: int
    hecke_violations: list
    multiplicativity_violations: list
    deligne_violations: list
    divisor_bound_violations: list

    @property
    def ok(self) -> bool:
        return not (
            self.hecke_violations
            or self.multiplicativity_violations
            or self.deligne_violations
            or self.divisor_bound_violations
        )

    def summary(self) -> str:
        return (
            f"n_max={self.n_max} hecke={len(self.hecke_violations)} "
            f"mult={len(self.multiplicativity_violations)} "
            f"deligne={len(self.deligne_violations)} "
            f"divisor={len(self.divisor_bound_violations)}"
        )


_SCREEN_MARGIN = 1e-9  # relative; far above the few roundings of the conversions, ** and products
_SCREEN_BLOCK = 1 << 13  # entries screened at a time, so the float64 temporaries stay small


def _as_float(values) -> np.ndarray:
    """float64 copy of exact ints; all inf when one leaves the float64 range,
    so that none of them passes the screen and each is decided exactly."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        return np.full(len(values), np.inf)


def _size_violations(ns, values, c, pk: int) -> list[tuple[int, int]]:
    """The pairs (n, a) with a^2 > c^2 n^pk, in the given order, as Python ints.

    float64 only screens: |a| < c n^(pk/2) (1 - margin) with a finite bound
    clears an entry, and every entry it does not clear is decided in exact
    integers.
    """
    out = []
    for lo in range(0, len(values), _SCREEN_BLOCK):
        block = slice(lo, lo + _SCREEN_BLOCK)
        vs, cs, idx = values[block], c[block], ns[block]
        with np.errstate(over="ignore"):  # an overflowed bound is inf, never cleared
            bound = np.power(_as_float(idx), pk / 2)
            bound *= cs
            bound *= 1 - _SCREEN_MARGIN
            a = _as_float(vs)
            cleared = (np.abs(a, out=a) < bound) & np.isfinite(bound)
        for i in np.flatnonzero(~cleared).tolist():
            n, an, cn = int(idx[i]), int(vs[i]), int(cs[i])
            if an * an > cn * cn * n**pk:
                out.append((n, an))
    return out


def check_identities(table: CoeffTable) -> IdentityReport:
    """Scan the whole table for violations of its defining identities.

    One ``spf_blocks`` walk checks, block by block, the Hecke relation at
    every composite n <= n_max and the divisor bound a(n)^2 <= d(n)^2 n^(2k-1)
    at every n >= 2, d from the same spf table (a(1) = d(1) = 1 meets it), and
    with it the squared coefficient bound a(p)^2 <= 4 p^(2k-1) at primes not
    dividing the level.  The relation compares exact integers; the two bounds
    are screened in float64 and every entry the screen does not clear is
    decided in exact integers (``_size_violations``).
    """
    vals = table._values
    n_max, level, pk = table.n_max, table.level, table.weight - 1
    spf = smallest_prime_factors(n_max)
    d = divisor_counts(spf)
    hecke, mult, divisor = [], [], []
    for n, p, q in spf_blocks(spf):
        divisor += _size_violations(n, vals[n - 1], d[n], pk)
        c = q > 1  # the composites
        n, p, q = n[c], p[c], q[c]
        expected = _hecke_values(table.descriptor, vals, p, q)
        for i in np.flatnonzero(vals[n - 1] != expected).tolist():
            entry = (int(n[i]), int(vals[n[i] - 1]), int(expected[i]))
            (mult if q[i] % p[i] else hecke).append(entry)
    # d(p) = 2, so at a prime the divisor bound is the Deligne bound
    deligne = [(p, ap) for p, ap in divisor if d[p] == 2 and level % p]
    return IdentityReport(n_max, hecke, mult, deligne, divisor)
