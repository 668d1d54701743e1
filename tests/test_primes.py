from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newform_basis import primes
from newform_basis.primes import (
    divisor_counts,
    integer_nth_root,
    is_prime,
    next_prime_below,
    primes_up_to,
    sieve_bitmap,
    smallest_prime_factors,
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


def test_divisor_counts():
    d = divisor_counts(200)
    for n in range(1, 201):
        assert int(d[n]) == sum(1 for k in range(1, n + 1) if n % k == 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**18), st.integers(min_value=1, max_value=11))
def test_integer_nth_root_exact(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_next_prime_below():
    assert next_prime_below(10) == 7
    assert next_prime_below(3) == 2
    assert is_prime(next_prime_below(1 << 49))
    with pytest.raises(ValueError):
        next_prime_below(2)
