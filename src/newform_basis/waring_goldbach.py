"""Sums of prime powers: local constants, exact counts, solutions, and the
truncated singular series with its main-term companion.

Counting is done layer by layer over ordered tuples: the array T_j[v] holds
the number of ordered j-tuples of allowed prime e-th powers summing to v, so
T_s[Z] is the ordered representation count.  Layers run in int64 and escalate
to exact Python integers if a bound check ever finds int64 headroom too
small.  The singular series evaluates each modulus q with exact residue
arithmetic inside the exponential sums (counting power residues, then one
FFT of length q) and accumulates the q-terms with compensated summation.

Prime lists are never rebuilt per call: without a pool they are cuts of the
shared sieve (``primes.prime_array``); a pool prepared once by ``prime_powers``,
as ``ConstructivePipeline`` does, is cut with one bisect.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import MemoryGuardError
from .primes import integer_nth_root, prime_array, primes_up_to

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_QMAX = 1000
_MAX_DP_CELLS = 2**25  # per layer; two int64 layers live at once
_INT64_GUARD = 2**62  # escalate counting to exact big ints past this headroom


@dataclass(frozen=True)
class HuaConstants:
    """Local modulus K, sufficient summand count s0, and the informational
    large-exponent threshold kw_bound for exponent e."""

    exponent: int
    K: int
    s0: int
    kw_bound: int


@dataclass(frozen=True)
class WGSolution:
    Z: int
    e: int
    primes: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.primes)

    def verify(self) -> bool:
        return sum(p**self.e for p in self.primes) == self.Z


@dataclass(frozen=True)
class SingularSeriesEstimate:
    value: float
    q_max: int
    normalization: str = "hua-standard"


def hua_constants(e: int) -> HuaConstants:
    """K = prod_{(p-1) | e} p^gamma and the sufficient summand count for exponent e."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    K = 1
    for p in primes_up_to(e + 1):
        if e % (p - 1):
            continue
        theta = 0
        m = e
        while m % p == 0:
            theta += 1
            m //= p
        gamma = theta + 2 if (p == 2 and theta > 0) else theta + 1
        K *= p**gamma
    if e <= 10:
        s0 = 2**e
    else:
        s0 = math.ceil(2 * e * e * (2 * math.log(e) + math.log(math.log(e)) + 2.5))
    kw = max(1, math.ceil((4 * e - 2) * math.log(e) + e - 7))
    return HuaConstants(e, K, s0, kw)


class PrimePowers(NamedTuple):
    """Ascending primes with their e-th powers: a pool prepared once, cut per call."""

    primes: Sequence[int]
    powers: Sequence[int]
    e: int


def prime_powers(primes: Sequence[int], e: int) -> PrimePowers:
    """Prepare ascending ``primes`` (kept, not copied; for e = 1 they are the powers)."""
    return PrimePowers(primes, primes if e == 1 else [p**e for p in primes], e)


def _allowed_powers(
    Z: int, e: int, predicate: Callable[[int], bool] | None,
    allowed: Sequence[int] | PrimePowers | None,
) -> tuple[PrimePowers, int]:
    """The pool and the count n of its powers <= Z: one bisect into a prepared pool,
    a plain ``allowed`` sorted first, else a cut of the shared sieve (``prime_array``)."""
    if allowed is None:
        ps = prime_array(integer_nth_root(Z, e))
        if predicate is not None or e > 1:
            ps = [p for p in ps.tolist() if predicate is None or predicate(p)]
        allowed = prime_powers(ps, e)
    elif not isinstance(allowed, PrimePowers):
        allowed = prime_powers(sorted(map(int, allowed)), e)  # exact ints, even from ndarrays
    elif allowed.e != e:
        raise ValueError(f"pool prepared for e = {allowed.e}, not {e}")
    return allowed, bisect_right(allowed.powers, Z)


def count_representations(
    Z: int,
    s: int,
    e: int,
    predicate: Callable[[int], bool] | None = None,
    allowed: Sequence[int] | PrimePowers | None = None,
    max_cells: int = _MAX_DP_CELLS,
) -> int:
    """Exact number of ordered s-tuples of allowed primes with sum of e-th powers Z."""
    if Z < 1 or s < 1 or e < 1:
        raise ValueError("need Z >= 1, s >= 1, e >= 1")
    if Z + 1 > max_cells:
        raise MemoryGuardError(f"count table of {Z + 1} cells exceeds the {max_cells} budget")
    pool, n = _allowed_powers(Z, e, predicate, allowed)
    if not n:
        return 0
    T = np.zeros(Z + 1, dtype=np.int64)
    T[0] = 1
    for _ in range(s):
        if T.dtype != object and int(T.max()) > _INT64_GUARD // n:
            T = T.astype(object)  # exact big ints once int64 headroom runs out
        U = np.zeros(Z + 1, dtype=T.dtype)
        for w in pool.powers[:n]:
            U[w:] += T[: Z + 1 - w]
        T = U
    return int(T[Z])


def find_solution(
    Z: int,
    s: int,
    e: int,
    predicate: Callable[[int], bool] | None = None,
    allowed: Sequence[int] | PrimePowers | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WGSolution | None:
    """One multiset of s allowed primes with sum of e-th powers Z, or None.

    Greedy descent: the largest feasible prime power is tried first, failures
    are memoized per (residual, terms-left) with the deepest index that failed,
    and the search gives up after ``node_budget`` visited nodes.  The memo and
    both prunings are sound: a None returned with budget left proves there is
    no solution over the allowed primes; only a spent budget proves nothing.
    """
    if Z < 1 or s < 1 or e < 1:
        raise ValueError("need Z >= 1, s >= 1, e >= 1")
    K = hua_constants(e).K
    if Z % K != s % K:
        warnings.warn(
            f"Z = {Z} is not congruent to s = {s} mod K = {K}; "
            "solutions need not exist",
            stacklevel=2,
        )
    (ps, powers, _), n = _allowed_powers(Z, e, predicate, allowed)
    if not n:
        return None
    min_w = powers[0]
    # fail_cap[(rem, terms)] = largest candidate index already known fruitless
    fail_cap: dict[tuple[int, int], int] = {}

    def first_cursor(rem: int, terms: int, cap: int) -> int:
        return bisect_right(powers, rem - (terms - 1) * min_w, 0, cap + 1) - 1

    # Explicit DFS stack of [rem, terms, cap, cursor]; a frame's cap is its parent's pick.
    stack = [[Z, s, n - 1, first_cursor(Z, s, n - 1)]]
    while stack and node_budget > 0:
        rem, terms, cap, cur = stack[-1]
        if terms == 1:
            node_budget -= 1
            j = bisect_left(powers, rem, 0, cap + 1)
            if j <= cap and powers[j] == rem:
                picks = [frame[2] for frame in stack[1:]] + [j]
                sol = WGSolution(Z, e, tuple(sorted(int(ps[i]) for i in picks)))
                if not sol.verify():
                    raise AssertionError("solver produced an invalid solution")
                return sol
            stack.pop()
            continue
        known = fail_cap.get((rem, terms), -1)
        if cap <= known or cur < 0 or powers[cur] * terms < rem:
            fail_cap[(rem, terms)] = max(cap, known)
            stack.pop()
            continue
        node_budget -= 1
        stack[-1][3] = cur - 1  # next candidate for this frame, descending
        rem -= powers[cur]
        stack.append([rem, terms - 1, cur, first_cursor(rem, terms - 1, cur)])
    return None


def singular_series(Z: int, s: int, e: int, q_max: int = DEFAULT_QMAX) -> SingularSeriesEstimate:
    """Truncated singular series sum_{q <= q_max} phi(q)^-s * sum_{(h,q)=1} S(q,h)^s e(-hZ/q).

    S(q,h) runs over residues l coprime to q of e(h l^e / q); the residue
    h l^e mod q is computed exactly, S(q, .) for all h comes from one FFT of
    the residue-count vector, and each S is normalized by phi(q) before the
    s-th power to keep magnitudes bounded.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    terms: list[complex] = []
    for q in range(1, q_max + 1):
        units = [l for l in range(q) if gcd(l, q) == 1]
        phi = len(units)
        counts = np.bincount([pow(l, e, q) for l in units], minlength=q).astype(np.float64)
        # FFT gives F[h] = sum_r counts[r] e(-hr/q); S(q,h) is its conjugate
        S_over_phi = np.conj(np.fft.fft(counts))[np.array(units)] / phi
        phase_idx = np.array([(h * Z) % q for h in units], dtype=np.float64)
        phases = np.exp(-2j * np.pi * phase_idx / q)
        terms.append(complex((S_over_phi**s * phases).sum()))
    value = math.fsum(t.real for t in terms)
    resid = abs(math.fsum(t.imag for t in terms))
    if resid > 1e-6 * (1.0 + abs(value)):
        raise AssertionError(f"singular series has non-real residue {resid}")
    return SingularSeriesEstimate(value, q_max)


def hua_main_term(Z: int, s: int, e: int, ss: SingularSeriesEstimate) -> float:
    """ss * Gamma(1/e)^s / Gamma(s/e) * Z^(s/e - 1) / log(Z)^s, natural log."""
    if Z < 3:
        raise ValueError("main term needs Z >= 3")
    if ss.value == 0.0:
        return 0.0
    log_scale = (
        s * math.lgamma(1.0 / e)
        - math.lgamma(s / e)
        + (s / e - 1.0) * math.log(Z)
        - s * math.log(math.log(Z))
    )
    try:
        scale = math.exp(log_scale)
    except OverflowError:
        scale = math.inf
    return ss.value * scale
