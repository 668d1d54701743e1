"""Prime sieves and small number-theoretic helpers.

Everything here is exact integer arithmetic; numpy holds only sieve bitmaps
and smallest-prime-factor (spf) and divisor-count tables, never values that
could overflow int64.  ``spf_blocks`` is the one walk over an spf table that
every whole-table multiplicative pass takes: d(n), the Hecke rebuild and scan.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np

from .errors import MemoryGuardError

# Witnesses proving primality for every n < 3.317e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def sieve_bitmap(limit: int) -> np.ndarray:
    """Boolean array b of length limit+1 with b[n] true iff n is prime."""
    if limit < 1:
        return np.zeros(max(limit + 1, 1), dtype=bool)
    b = np.ones(limit + 1, dtype=bool)
    b[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if b[p]:
            b[p * p:: p] = False
    return b


_SIEVE = (0, np.zeros(0, dtype=np.int64))  # shared (limit, primes <= limit), swapped whole
# largest shared sieve: a 1 GiB bitmap, then 54.4M primes as int64 (435 MB)
MAX_SIEVE = 1 << 30
_WALK_BLOCK = 1 << 13  # most rows of one spf_blocks block: 64 KB per int64 column


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit: a read-only ascending int64 cut of the shared sieve,
    which grows to the next power of two at or above the largest limit asked for.

    A limit that would grow the sieve past ``MAX_SIEVE`` raises
    ``MemoryGuardError`` before anything is allocated.
    """
    global _SIEVE
    sieved, primes = _SIEVE
    if limit > sieved:
        sieved = 1 << (limit - 1).bit_length()
        if sieved > MAX_SIEVE:
            raise MemoryGuardError(f"a prime sieve to {limit} exceeds the {MAX_SIEVE} limit")
        primes = np.flatnonzero(sieve_bitmap(sieved)).astype(np.int64, copy=False)
        primes.flags.writeable = False
        _SIEVE = (sieved, primes)
    return primes[: np.searchsorted(primes, limit, side="right")]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (a fresh list cut from the shared sieve)."""
    return prime_array(limit).tolist()


def smallest_prime_factors(limit: int) -> np.ndarray:
    """Array s with s[n] = smallest prime factor of n (s[0] = s[1] = 0), in
    int32: s[n] <= n, so it holds every entry for limit < 2^31 at half the
    bytes of int64."""
    s = np.zeros(limit + 1, dtype=np.int32)
    for p in prime_array(isqrt(limit))[::-1].tolist():
        s[p * p:: p] = p  # descending, so the smallest prime writes last
    unmarked = np.flatnonzero(s[2:] == 0) + 2
    s[unmarked] = unmarked  # remaining slots are prime
    return s


def spf_blocks(spf: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows (n, p, q) with p = spf[n] and q = n / p for n = 2..len(spf) - 1, as
    int64 arrays over ascending blocks [lo, hi) with hi <= 2 lo and at most
    ``_WALK_BLOCK`` rows.  Since p >= 2, every q and q / p is below lo: a table
    filled block by block reads only entries that are already filled."""
    lo = 2
    while lo < len(spf):
        hi = min(2 * lo, lo + _WALK_BLOCK, len(spf))
        n = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi].astype(np.int64)  # so that p**e and n // p stay int64
        yield n, p, n // p
        lo = hi


def divisor_counts(spf: np.ndarray) -> np.ndarray:
    """Array d with d[n] = number of divisors of n < len(spf) (d[0] = 0), in
    int32 like spf, by the ``spf_blocks`` walk of d(p q) = 2 d(q) - [p | q]
    d(q / p): the Hecke relation with a(p) = 2 and p^(2k-1) = 1."""
    d = np.ones(len(spf), dtype=np.int32)
    d[0] = 0
    for n, p, q in spf_blocks(spf):
        d[n] = 2 * d[q] - (q % p == 0) * d[q // p]
    return d


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n below ~3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test limit exceeded: {n}")
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_nth_root(x: int, n: int) -> int:
    """floor(x**(1/n)) for x >= 0, n >= 1, exact."""
    if x < 0 or n < 1:
        raise ValueError("integer_nth_root needs x >= 0, n >= 1")
    if x < 2 or n == 1:
        return x
    if n == 2:
        return isqrt(x)
    r = int(round(x ** (1.0 / n)))
    while r > 0 and r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r

