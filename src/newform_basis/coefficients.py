"""Exact Fourier coefficient tables for integer-coefficient newforms.

Two construction routes are provided and are deliberately independent of
each other so they can cross-check:

* ``expand_eta_product`` multiplies out the eta-product q-expansion of a
  builtin form with truncated power series arithmetic (sparse
  pentagonal-number series, one pass per eta factor).
* ``hecke_extend`` rebuilds the full table from prime coefficients alone,
  using multiplicativity and the prime-power recursion.

All stored coefficients are exact integers.  The series multiplication
runs over int64 residues modulo one or more ~49-bit primes and is
reconstructed exactly afterwards; no floating point is involved anywhere.

Every table stores its values in one ndarray whose dtype the descriptor
decides: int64 when the coefficient bound 2 * n_max^k fits, object (exact
Python ints) otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    FormatError,
    IntegrityError,
    TableTooSmallError,
    VerificationError,
)
from .primes import (
    divisor_counts,
    is_prime,
    next_prime_below,
    primes_up_to,
    smallest_prime_factors,
)

BUILTIN_DELTA = "builtin-delta"
BUILTIN_11A = "builtin-11a"

# (scale, power) pairs: the form is q * prod_{n>=1} (1 - q^(scale*n))^power.
_ETA_FACTORS: dict[str, tuple[tuple[int, int], ...]] = {
    BUILTIN_DELTA: ((1, 24),),
    BUILTIN_11A: ((1, 2), (11, 2)),
}

_BUILTIN_SHAPES = {BUILTIN_DELTA: (12, 1), BUILTIN_11A: (2, 11)}


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

    @property
    def is_builtin(self) -> bool:
        return self.source in _ETA_FACTORS


DELTA = NewformDescriptor(12, 1, BUILTIN_DELTA)
FORM_11A = NewformDescriptor(2, 11, BUILTIN_11A)

_BUILTIN_NAMES = {"delta": DELTA, "11a": FORM_11A}


def builtin_descriptor(name: str) -> NewformDescriptor:
    """Descriptor for a builtin form name ('delta' or '11a')."""
    try:
        return _BUILTIN_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown builtin form {name!r}; choose from {sorted(_BUILTIN_NAMES)}")


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
        bound = 2 * n_max**descriptor.k
        dtype = np.int64 if bound < 2**63 else object
        try:
            values = np.asarray(values, dtype=dtype)
        except OverflowError:
            raise IntegrityError(
                f"a value does not fit int64, the storage selected by the coefficient "
                f"bound 2 * n_max^k = {bound} < 2^63; corrupt data"
            ) from None
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
        """
        if n < 1:
            raise ValueError("coefficient index must be >= 1")
        if n <= self.n_max:
            return self.a(n)
        primes = self.primes()
        val, rem, i = 1, n, 0
        while rem > self.n_max:
            s = isqrt(rem)
            if s * s == rem and s <= self.n_max and is_prime(s):
                return val * self.prime_power(s, 2)
            while i < len(primes) and primes[i] <= s and rem % primes[i]:
                i += 1
            if i == len(primes) or primes[i] > s:  # rem is a prime > n_max
                raise TableTooSmallError(
                    f"index {n} has prime factor {rem} beyond table bound {self.n_max}"
                )
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


def _pentagonal_terms(scale: int, limit: int) -> list[tuple[int, int]]:
    """Signed exponents of prod (1 - q^(scale*n)) up to q^limit, constant term omitted."""
    terms = []
    j = 1
    while True:
        g1 = scale * (j * (3 * j - 1) // 2)
        if g1 > limit:
            break
        sign = -1 if j % 2 else 1
        terms.append((g1, sign))
        g2 = scale * (j * (3 * j + 1) // 2)
        if g2 <= limit:
            terms.append((g2, sign))
        j += 1
    return terms


_MODULUS_POOL: list[int] = []


def _moduli_for(bound: int) -> list[int]:
    """Distinct ~49-bit primes whose product exceeds 2*bound."""
    moduli = []
    prod = 1
    while prod <= 2 * bound:
        while len(_MODULUS_POOL) <= len(moduli):
            below = _MODULUS_POOL[-1] if _MODULUS_POOL else (1 << 49)
            _MODULUS_POOL.append(next_prime_below(below))
        m = _MODULUS_POOL[len(moduli)]
        moduli.append(m)
        prod *= m
    return moduli


def _expand_residues(factors, n_max: int, m: int) -> np.ndarray:
    """Product series of the eta factors modulo m, as int64 residues."""
    limit = n_max - 1  # degree of the series before the leading q shift
    cur = np.zeros(n_max, dtype=np.int64)
    cur[0] = 1
    for scale, power in factors:
        terms = _pentagonal_terms(scale, limit)
        if (len(terms) + 1) * (m - 1) >= 2**63:
            raise ValueError("n_max too large for the modular series backend")
        for _ in range(power):
            out = cur.copy()
            for g, sign in terms:
                if sign > 0:
                    out[g:] += cur[: n_max - g]
                else:
                    out[g:] -= cur[: n_max - g]
            out %= m
            cur = out
    return cur


def _crt_values(residue_rows: list[np.ndarray], moduli: list[int]) -> np.ndarray:
    """Exact signed values from residues: column-wise Garner lift, then the symmetric lift.

    Each mixed-radix digit multiplies two ~49-bit residues, so the lift runs
    on object columns (exact Python ints) once a second modulus enters.  The
    steps work in place, so at most two object columns are alive at a time.
    """
    x = residue_rows[0]
    radix = moduli[0]
    for row, m in zip(residue_rows[1:], moduli[1:]):
        digit = row.astype(object)
        digit -= x
        digit *= pow(radix % m, -1, m)
        digit %= m
        digit *= radix
        digit += x
        x = digit
        radix *= m
    x[x > radix >> 1] -= radix
    return x


def expand_eta_product(descriptor: NewformDescriptor, n_max: int) -> CoeffTable:
    """Coefficient table of a builtin form by direct eta-product expansion.

    Rejects non-builtin sources (load the prime table and use hecke_extend
    instead) and n_max < 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    factors = _ETA_FACTORS.get(descriptor.source)
    if factors is None:
        raise ValueError(
            f"source {descriptor.source!r} has no eta product; ingest it with load_newform"
        )
    bound = 2 * n_max**descriptor.k  # |a(n)| <= d(n) n^((2k-1)/2) < 2 n^k
    moduli = _moduli_for(bound)
    residue_rows = [_expand_residues(factors, n_max, m) for m in moduli]
    values = _crt_values(residue_rows, moduli)
    table = CoeffTable(descriptor, n_max, values)
    _spot_check(table)
    return table


def _spot_check(table: CoeffTable, count: int = 5) -> None:
    """Cheap internal consistency check after a fresh expansion."""
    pk = table.weight - 1
    checked = 0
    for p in table.primes():
        if p * p > table.n_max or checked >= count:
            break
        if table.level % p == 0:
            continue
        if table.a(p) ** 2 - table.a(p * p) != p**pk:
            raise VerificationError(f"prime-square identity fails at p={p}")
        checked += 1


def hecke_extend(
    descriptor: NewformDescriptor, prime_coeffs: Mapping[int, int], n_max: int
) -> CoeffTable:
    """Full table from prime coefficients via multiplicativity and recursion.

    ``prime_coeffs`` must cover every prime <= n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for q in primes_up_to(n_max):
        if q not in prime_coeffs:
            raise IntegrityError(f"missing prime coefficient a({q})")
    level = descriptor.level
    pk_exp = descriptor.weight - 1
    spf = smallest_prime_factors(n_max).tolist()
    vals = [0] * n_max
    vals[0] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n // p
        if m == 1:
            vals[n - 1] = int(prime_coeffs[p])
        elif m % p:
            vals[n - 1] = vals[p - 1] * vals[m - 1]
        else:
            pe = p * p
            rest = m // p
            while rest % p == 0:
                pe *= p
                rest //= p
            if rest == 1:
                if level % p == 0:
                    vals[n - 1] = vals[p - 1] * vals[n // p - 1]
                else:
                    vals[n - 1] = vals[p - 1] * vals[n // p - 1] - p**pk_exp * vals[n // (p * p) - 1]
            else:
                vals[n - 1] = vals[pe - 1] * vals[rest - 1]
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
    """
    headers: dict[str, int] = {}
    coeffs: dict[int, int] = {}
    last_p = 0
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
            if not is_prime(p):
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
    bound_exp = descriptor.weight - 1
    for p, ap in coeffs.items():
        if descriptor.level % p and ap * ap > 4 * p**bound_exp:
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
    """Violation lists from check_identities; all empty on a valid table."""

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


def _coprime_sample_pairs(n_max: int, limit: int) -> Iterable[tuple[int, int]]:
    """Deterministic spread of coprime pairs (m, n) with m*n <= n_max."""
    count = 0
    for m in range(2, 64):
        if m * 2 > n_max:
            break
        step = max(1, (n_max // m) // max(1, limit // 48))
        for n in range(m + 1, n_max // m + 1, step):
            if gcd(m, n) == 1:
                yield m, n
                count += 1
                if count >= limit:
                    return


def check_identities(table: CoeffTable, mult_samples: int = 2000) -> IdentityReport:
    """Scan the whole table for violations of its defining identities.

    Checks the prime-square identity, multiplicativity on sampled coprime
    pairs, the squared coefficient bound at primes, and the divisor bound
    a(n)^2 <= d(n)^2 n^(2k-1) at every index.  Integer comparisons only.
    """
    level = table.level
    pk = table.weight - 1
    hecke = []
    deligne = []
    for p in table.primes():
        if level % p == 0:
            continue
        ap = table.a(p)
        ppk = p**pk
        if ap * ap > 4 * ppk:
            deligne.append((p, ap))
        if p * p <= table.n_max and ap * ap - table.a(p * p) != ppk:
            hecke.append((p, ap, table.a(p * p)))
    mult = []
    for m, n in _coprime_sample_pairs(table.n_max, mult_samples):
        if table.a(m * n) != table.a(m) * table.a(n):
            mult.append((m, n))
    divisor = []
    d = divisor_counts(table.n_max)
    for n in range(1, table.n_max + 1):
        an = table.a(n)
        dn = int(d[n])
        if an * an > dn * dn * n**pk:
            divisor.append((n, an))
    return IdentityReport(table.n_max, hecke, mult, deligne, divisor)
