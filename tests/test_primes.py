from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newform_basis import MemoryGuardError, primes
from newform_basis.primes import (
    divisor_counts,
    integer_nth_root,
    is_prime,
    prime_array,
    primes_up_to,
    sieve_bitmap,
    smallest_prime_factors,
    spf_blocks,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_shared_sieve_matches_trial_division(monkeypatch):
    # from an empty shared sieve: every limit ascending (each 2^j + 1 grows
    # it), then descending (cuts of the largest); returned lists are copies
    monkeypatch.setattr(primes, "_SIEVE", (0, primes._SIEVE[1][:0]))
    limits = [0, 1, 2, 3] + [2**j + d for j in range(4, 13) for d in (-1, 0, 1)]
    for n in limits + limits[::-1]:
        got = primes_up_to(n)
        assert got == [m for m in range(n + 1) if trial_division_is_prime(m)], n
        got.append(-1)
        got[:1] = [4]
    assert primes._SIEVE[0] == 2**13


def test_shared_sieve_is_bounded(monkeypatch):
    # a stub bitmap records each growth, so no limit here allocates a real sieve
    grown = []
    monkeypatch.setattr(primes, "sieve_bitmap", lambda n: grown.append(n) or np.zeros(8, bool))
    monkeypatch.setattr(primes, "_SIEVE", (0, primes._SIEVE[1][:0]))
    prime_array(2**30)
    assert grown == [2**30] == [primes.MAX_SIEVE]
    with pytest.raises(MemoryGuardError, match=f"sieve to {2**30 + 1} exceeds"):
        prime_array(2**30 + 1)
    with pytest.raises(MemoryGuardError, match=f"sieve to {10**12} exceeds"):
        prime_array(10**12)
    assert grown == [2**30]


def test_sieve_matches_trial_division():
    bitmap = sieve_bitmap(2000)
    for n in range(2001):
        assert bool(bitmap[n]) == trial_division_is_prime(n)


def test_miller_rabin_matches_trial_division():
    for n in range(2, 5000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_miller_rabin_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


def test_smallest_prime_factors():
    spf = smallest_prime_factors(500)
    for n in range(2, 501):
        f = int(spf[n])
        assert n % f == 0
        assert trial_division_is_prime(f)
        assert all(n % d for d in range(2, f))


def trial_division_divisor_count(n: int) -> int:
    """Divisors of n in pairs (k, n // k) with k <= sqrt(n)."""
    r = isqrt(n)
    return sum(2 for k in range(1, r + 1) if n % k == 0) - (r * r == n)


def test_divisor_counts():
    d = divisor_counts(smallest_prime_factors(10**4))
    assert d.tolist() == [0] + [trial_division_divisor_count(n) for n in range(1, 10**4 + 1)]
    for limit in range(0, 40):
        assert divisor_counts(smallest_prime_factors(limit)).tolist() == d[: limit + 1].tolist()


def test_spf_blocks_walk_every_n_once_after_its_factors():
    limit = 3 * primes._WALK_BLOCK + 5
    spf = smallest_prime_factors(limit)
    seen = []
    for n, p, q in spf_blocks(spf):
        lo, hi = int(n[0]), int(n[-1]) + 1
        assert n.tolist() == list(range(lo, hi)) and hi <= 2 * lo
        assert len(n) <= primes._WALK_BLOCK
        assert (p == spf[n]).all() and (p * q == n).all()
        assert (q < lo).all() and (q // p < lo).all()
        seen += n.tolist()
    assert seen == list(range(2, limit + 1))
    for limit in (0, 1):
        assert list(spf_blocks(smallest_prime_factors(limit))) == []


def test_spf_in_int32_walk_rows_in_int64():
    # half the bytes per index; the rows widen, so p**(2k - 1) in the Hecke
    # relation and n // p cannot wrap in int32
    spf = smallest_prime_factors(3 * primes._WALK_BLOCK)
    assert spf.dtype == np.int32 and divisor_counts(spf).dtype == np.int32
    for rows in spf_blocks(spf):
        assert [x.dtype for x in rows] == [np.int64] * 3


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=11))
def test_integer_nth_root_exact(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n
