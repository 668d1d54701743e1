"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: the eta
expansion below multiplies one (1 - q^j) factor at a time by direct
convolution, the representation counter enumerates ordered tuples with
nested loops, the singular series sums its definition term by term with
``cmath`` (no FFT, no multiplicativity), and the identity scan visits every
index with exact Python ints (no float screen, no sieve).  Expensive coefficient
tables are session fixtures.
"""

from __future__ import annotations

import cmath
import math

import pytest

from newform_basis import (
    DELTA,
    FORM_11A,
    ConstructivePipeline,
    IdentityReport,
    SearchDecomposer,
    expand_eta_product,
)

ETA_FACTOR_SPECS = {
    "delta": ((1, 24),),
    "11a": ((1, 2), (11, 2)),
}


def naive_eta_coefficients(specs, n_max: int) -> list[int]:
    """a(1..n_max) of q * prod (1 - q^(scale*n))^power by factor-at-a-time convolution."""
    deg = n_max - 1
    series = [0] * (deg + 1)
    series[0] = 1
    for scale, power in specs:
        for j in range(1, deg // scale + 1):
            step = scale * j
            for _ in range(power):
                for i in range(deg, step - 1, -1):
                    series[i] -= series[i - step]
    return series


def naive_ordered_counts(z_max: int, s: int, e: int, primes: list[int]) -> list[int]:
    """counts[z] = ordered s-tuples of primes with sum of e-th powers z, for z <= z_max."""
    powers = [p**e for p in primes if p**e <= z_max]
    counts = [0] * (z_max + 1)
    counts[0] = 1
    for _ in range(s):
        nxt = [0] * (z_max + 1)
        for w in powers:
            for v in range(w, z_max + 1):
                if counts[v - w]:
                    nxt[v] += counts[v - w]
        counts = nxt
    return counts


def brute_force_ordered_count(Z: int, s: int, e: int, primes: list[int]) -> int:
    """Literal nested enumeration over ordered tuples (s <= 3)."""
    powers = [p**e for p in primes if p**e <= Z]
    if s == 1:
        return sum(1 for w in powers if w == Z)
    if s == 2:
        return sum(1 for w1 in powers for w2 in powers if w1 + w2 == Z)
    if s == 3:
        total = 0
        for w1 in powers:
            for w2 in powers:
                rest = Z - w1 - w2
                if rest >= 2:
                    total += sum(1 for w3 in powers if w3 == rest)
        return total
    raise ValueError("oracle supports s <= 3")


def naive_series_term(q: int, Z: int, s: int, e: int) -> complex:
    """phi(q)^-s * sum_{(h,q)=1} S(q,h)^s e(-hZ/q), S(q,h) = sum_{(l,q)=1} e(h l^e / q),
    by a direct double loop over units h and l."""
    units = [x for x in range(q) if math.gcd(x, q) == 1]
    total = 0j
    for h in units:
        S = sum(cmath.exp(2j * cmath.pi * (h * pow(l, e, q) % q) / q) for l in units)
        total += (S / len(units)) ** s * cmath.exp(-2j * cmath.pi * (h * Z % q) / q)
    return total


def naive_singular_series(Z: int, s: int, e: int, q_max: int) -> float:
    """Real part of the truncated singular series sum_{q <= q_max} of the direct terms."""
    return sum(naive_series_term(q, Z, s, e) for q in range(1, q_max + 1)).real


def naive_check_identities(table) -> IdentityReport:
    """check_identities by a scalar scan: every prime and index in exact Python
    ints, the smallest prime factor of each n by trial division, divisor counts
    by one slice add per divisor."""
    level = table.level
    pk = table.weight - 1
    deligne = []
    for p in table.primes():
        ap = table.a(p)
        if level % p and ap * ap > 4 * p**pk:
            deligne.append((p, ap))
    hecke, mult = [], []
    for n in range(2, table.n_max + 1):
        p = next((m for m in range(2, math.isqrt(n) + 1) if n % m == 0), n)
        if p == n:
            continue
        q = n // p
        expected = table.a(p) * table.a(q)
        if q % p == 0 and level % p:
            expected -= p**pk * table.a(q // p)  # a(p) a(q) = a(pq) + p^(2k-1) a(q/p)
        if table.a(n) != expected:
            (hecke if q % p == 0 else mult).append((n, table.a(n), expected))
    d = [0] * (table.n_max + 1)
    for i in range(1, table.n_max + 1):
        for j in range(i, table.n_max + 1, i):
            d[j] += 1
    divisor = []
    for n in range(1, table.n_max + 1):
        an = table.a(n)
        if an * an > d[n] * d[n] * n**pk:
            divisor.append((n, an))
    return IdentityReport(table.n_max, hecke, mult, deligne, divisor)


@pytest.fixture(scope="session")
def delta_1k():
    return expand_eta_product(DELTA, 1000)


@pytest.fixture(scope="session")
def f11a_1k():
    return expand_eta_product(FORM_11A, 1000)


@pytest.fixture(scope="session")
def delta_100k():
    return expand_eta_product(DELTA, 10**5)


@pytest.fixture(scope="session")
def delta_1m():
    # covers a(p^2) for every prime p <= 10^3
    return expand_eta_product(DELTA, 10**6)


@pytest.fixture(scope="session")
def f11a_big():
    return expand_eta_product(FORM_11A, 2_750_000)


@pytest.fixture(scope="session")
def pipeline_11a(f11a_big):
    return ConstructivePipeline(f11a_big)


@pytest.fixture(scope="session")
def delta_searcher(delta_1k):
    return SearchDecomposer(delta_1k)
