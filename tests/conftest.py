"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: the eta
expansion below multiplies one (1 - q^j) factor at a time by direct
convolution, the representation counter enumerates ordered tuples with
nested loops, the singular series sums its definition term by term with
``cmath`` (no FFT, no multiplicativity), and the identity scan visits every
index with exact Python ints (no float screen).  Expensive coefficient
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


def naive_coprime_sample_pairs(n_max: int, limit: int):
    """The sampled multiplicativity pairs, one at a time: for m = 2..63, every
    step-th n above m with gcd(m, n) = 1 and m*n <= n_max, stopping at limit."""
    count = 0
    for m in range(2, 64):
        if m * 2 > n_max:
            break
        step = max(1, (n_max // m) // max(1, limit // 48))
        for n in range(m + 1, n_max // m + 1, step):
            if math.gcd(m, n) == 1:
                yield m, n
                count += 1
                if count >= limit:
                    return


def naive_check_identities(table) -> IdentityReport:
    """check_identities by a scalar scan: every prime, sampled pair and index in
    exact Python ints, divisor counts by one slice add per divisor."""
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
    for m, n in naive_coprime_sample_pairs(table.n_max, 2000):
        if table.a(m * n) != table.a(m) * table.a(n):
            mult.append((m, n))
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
