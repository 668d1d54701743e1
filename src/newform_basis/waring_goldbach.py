"""Sums of prime powers: local constants, exact counts, solutions, and the
truncated singular series with its main-term companion.

Counting meets in the middle over ordered tuples (``count_representations``):
every layer is held as its support, and a step too dense for pair sums takes
one exact FFT product (``series.product``) with the indicator of the allowed
powers.  Eight cubes never allocate an array of Z + 1 cells; Goldbach-type
counts (e = 1 over every prime) take the product from the first step, since
pi(Z)^2 > Z + 1 from Z = 5 on.  The singular series runs its exponential
sums only at prime powers q = p^m, with exact integer residue arithmetic on
arrays (counting power residues, then one FFT of length q); every composite q
takes the product of its prime-power local factors, since the q-term is
multiplicative in q by the Chinese remainder theorem.  The q-terms are
accumulated with compensated summation.

Prime lists are never rebuilt per call: without a pool they are cuts of the
shared sieve (``primes.prime_array``); a pool prepared once by ``prime_powers``,
as ``ConstructivePipeline`` does, is checked there (strictly ascending primes)
and then cut with one bisect per call.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import MemoryGuardError, VerificationError
from .primes import (
    MAX_SIEVE, integer_nth_root, is_prime, prime_array, primes_up_to, smallest_prime_factors,
)
from .series import product

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_QMAX = 1000
# Most cells one allocation of a count may take: T_1's powers, a pair-sum step's pairs or a
# product step's Z + 1 cells.  A product step raised RSS by 77-81 B a cell at Z <= 10^6, and
# by 116-195 B at 3 * 10^5 with s = 6..12, whose counts need Python ints: 0.7 and 1.6 GB here.
_MAX_DP_CELLS = 2**23
_INT64_GUARD = 2**62  # escalate a layer or the final product to exact big ints past this
_DOT_BLOCK = 1 << 14  # matched cells per block of the exact final dot


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
    """Distinct ascending primes with their e-th powers: a pool prepared once, cut per call."""

    primes: Sequence[int]
    powers: Sequence[int]
    e: int


def _pool(primes: Sequence[int], e: int) -> PrimePowers:
    """Pair ascending distinct ``primes`` with their e-th powers, unchecked
    (for e = 1 the primes are the powers)."""
    return PrimePowers(primes, primes if e == 1 else [p**e for p in primes], e)


def prime_powers(primes: Sequence[int], e: int) -> PrimePowers:
    """Prepare a pool of strictly ascending ``primes`` (kept, not copied).

    The pool is checked once, here, so no solve over it pays again: entries
    must ascend strictly and each must be a prime: of the shared sieve
    (``prime_array``) by one vectorised ``searchsorted`` up to ``MAX_SIEVE``,
    by ``is_prime`` past it; ``ValueError`` otherwise, and for an entry that
    int64 does not hold (a prime >= 2^63).
    """
    try:
        ps = np.asarray(primes, dtype=np.int64)
    except OverflowError:
        big = next(p for p in primes if not -(1 << 63) <= p < 1 << 63)
        raise ValueError(
            f"pool entry {big} does not fit int64: pool primes must be below 2^63") from None
    if len(ps):
        down = np.flatnonzero(ps[1:] <= ps[:-1])
        if len(down):
            i = down[0]
            raise ValueError(f"pool primes must ascend strictly: {ps[i]} then {ps[i + 1]}")
        sieve = prime_array(int(ps[ps <= MAX_SIEVE].max(initial=2)))  # never empty, for the clip
        off = ps[sieve.take(np.searchsorted(sieve, ps), mode="clip") != ps].tolist()
        bad = [p for p in off if p <= MAX_SIEVE or not is_prime(p)]  # past the sieve: is_prime
        if bad:
            raise ValueError(f"pool entry {bad[0]} is not a prime")
    return _pool(primes, e)


def _allowed_powers(
    Z: int, e: int, allowed: Sequence[int] | PrimePowers | None
) -> tuple[PrimePowers, int]:
    """The pool and the count n of its powers <= Z: one bisect into a prepared pool,
    a plain ``allowed`` checked, de-duplicated and sorted first, else a cut of the
    shared sieve (``prime_array``; for e > 1 exact Python ints, refused by ``_sieve_cut``
    past ``_MAX_DP_CELLS`` primes)."""
    if allowed is None:
        root = integer_nth_root(Z, e)
        ps = prime_array(root) if e == 1 else _sieve_cut(root, "the default pool").tolist()
        allowed = _pool(ps, e)
    elif not isinstance(allowed, PrimePowers):
        ps = list(dict.fromkeys(map(int, allowed)))  # exact ints, even from ndarrays; each once
        bad = next((p for p in ps if not is_prime(p)), None)
        if bad is not None:
            raise ValueError(f"allowed entry {bad} is not a prime")
        allowed = _pool(sorted(ps), e)
    elif allowed.e != e:
        raise ValueError(f"pool prepared for e = {allowed.e}, not {e}")
    return allowed, bisect_right(allowed.powers, Z)


def _pair_sums(
    keys: np.ndarray, T: np.ndarray, w: np.ndarray, Z: int
) -> tuple[np.ndarray, np.ndarray]:
    """The next layer in support form: every sum k + x <= Z of a support entry
    k = keys[i] (count T[i]) and an allowed power x in w, sorted, equal sums
    merged by adding their counts.  A merged run has at most len(w) entries,
    one per power."""
    sums = np.add.outer(w, keys)
    keep = sums <= Z
    sums = sums[keep]
    vals = np.broadcast_to(T, keep.shape)[keep]
    order = sums.argsort()
    sums, vals = sums[order], vals[order]
    starts = np.flatnonzero(np.diff(sums, prepend=-1))
    return sums[starts], np.add.reduceat(vals, starts)


def count_representations(
    Z: int, s: int, e: int, *, allowed: Sequence[int] | PrimePowers | None = None
) -> int:
    """Exact number of ordered s-tuples of allowed primes with sum of e-th powers Z.

    ``allowed`` defaults to every prime.  Meets in the middle: with T_j[v] the
    number of ordered j-tuples of allowed powers summing to v, the count is
    sum_v T_hi[Z - v] * T_lo[v], lo = floor(s/2) and hi = s - lo, one
    ``searchsorted`` dot product over the support of T_lo.  Each layer is its
    support, the ascending sums <= Z with their counts.  A step with at most
    Z + 1 pairs (support x powers) takes pair sums (``_pair_sums``); a longer
    one multiplies the layer, spread over Z + 1 cells, by the indicator of the
    powers (``series.product``, exact for any count).  Pair sums and the dot
    run in int64 only while a bound check shows that nothing can pass
    ``_INT64_GUARD``, else in exact Python integers (the dot one block of
    cells at a time), so the count is exact for every s and Z.
    An allocation of more than ``_MAX_DP_CELLS`` cells (T_1's n powers, a
    pair-sum step's pairs, a product step's Z + 1 cells) raises
    ``MemoryGuardError`` before it is made, the default pool's T_1 before the
    sieve where it can (``_sieve_cut``).  Z >= 2^62 raises ``ValueError``:
    a sum of two powers <= Z must fit in int64.
    """
    if Z < 1 or s < 1 or e < 1:
        raise ValueError("need Z >= 1, s >= 1, e >= 1")
    if 2 * Z > np.iinfo(np.int64).max:
        raise ValueError(f"need Z < 2^62 so that pair sums fit in int64, got {Z}")
    if allowed is None:  # every prime: sieve, cut and raise to the e-th power in int64
        w = _sieve_cut(integer_nth_root(Z, e), "the powers of T_1")**e
    else:
        pool, n = _allowed_powers(Z, e, allowed)
        _check_cells(n, "the powers of T_1")
        w = np.asarray(pool.powers[:n], dtype=np.int64)
    n = len(w)
    if not n:
        return 0
    keys, T = w, np.ones(n, dtype=np.int64)  # T_1 as its support
    lo = s // 2  # T_lo is kept for the product; the loop builds up to T_(s - lo)
    lo_keys, lo_T = (keys, T) if lo == 1 else (np.zeros(1, np.int64), T[:1])  # T_0 for s = 1
    for j in range(2, s - lo + 1):
        if len(keys) * n <= Z + 1:
            _check_cells(len(keys) * n, f"the pair-sum step to T_{j}")
            if T.dtype != object and int(T.max()) > _INT64_GUARD // n:
                T = T.astype(object)  # exact big ints once int64 headroom runs out
            keys, T = _pair_sums(keys, T, w, Z)
        else:  # spread over Z + 1 cells, times the indicator of the powers
            _check_cells(Z + 1, f"the product step to T_{j}")
            T = product(_spread(keys, T, Z + 1), _spread(w, np.ones(n, np.int8), Z + 1), Z + 1)
            keys = np.flatnonzero(T)
            T = T[keys]
        if not len(keys):  # no j-tuple fits under Z
            return 0
        if j == lo:
            lo_keys, lo_T = keys, T
    want = Z - lo_keys[::-1]  # ascending
    at = keys.searchsorted(want)
    hit = keys.take(at, mode="clip") == want
    hi, lo_v = T[at[hit]], lo_T[::-1][hit]
    # partial sums stay <= max(T_hi) * sum(T_lo), and sum(T_lo) <= n^lo, max(T_lo) * its cells
    if T.dtype == object or int(T.max()) * min(n**lo, int(lo_T.max()) * len(lo_T)) > _INT64_GUARD:
        return _exact_dot(hi, lo_v)
    return int(np.dot(hi, lo_v))


def _spread(keys: np.ndarray, values: np.ndarray, cells: int) -> np.ndarray:
    """``cells`` zeros in values' dtype, values at keys: ``product`` frees it once in digits."""
    out = np.zeros(cells, values.dtype)
    out[keys] = values
    return out


def _sieve_cut(root: int, what: str) -> np.ndarray:
    """The primes <= root, a cut of the shared sieve; more than ``_MAX_DP_CELLS`` of them
    raise ``MemoryGuardError``, before the sieve when pi(x) >= x / ln x (x >= 17) shows it."""
    _check_cells(int(root / math.log(root)) if root >= 17 else 0,
                 f"{what} (a lower bound, pi(x) >= x / ln x)")
    ps = prime_array(root)
    _check_cells(len(ps), what)
    return ps


def _check_cells(cells: int, what: str) -> None:
    """Refuse an allocation of more than ``_MAX_DP_CELLS`` cells before it is made."""
    if cells > _MAX_DP_CELLS:
        raise MemoryGuardError(f"{what}: {cells} cells exceed the {_MAX_DP_CELLS} budget")


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """x · y in Python ints, converting and dotting _DOT_BLOCK cells at a time, so that
    one block of each, not two whole arrays, is held as Python ints."""
    blocks = range(0, len(x), _DOT_BLOCK)
    return sum(int(np.dot(x[st:st + _DOT_BLOCK].astype(object),
                          y[st:st + _DOT_BLOCK].astype(object))) for st in blocks)


def find_solution(
    Z: int, s: int, e: int, *, allowed: Sequence[int] | PrimePowers | None = None
) -> WGSolution | None:
    """One multiset of s allowed primes with sum of e-th powers Z, or None.

    ``allowed`` defaults to every prime.  Greedy descent: the largest feasible
    prime power is tried first, failures are memoized per (residual, terms-left)
    with the deepest index that failed, and the search gives up after
    ``DEFAULT_NODE_BUDGET`` visited nodes.  The memo and both prunings are
    sound: a None returned with budget left proves there is no solution over
    the allowed primes; only a spent budget proves nothing.  A found multiset
    is re-summed, and one that fails raises ``VerificationError``.  For e > 1
    the default pool is refused past ``_MAX_DP_CELLS`` primes (``_sieve_cut``).
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
    (ps, powers, _), n = _allowed_powers(Z, e, allowed)
    if not n:
        return None
    min_w = powers[0]
    # fail_cap[(rem, terms)] = largest candidate index already known fruitless
    fail_cap: dict[tuple[int, int], int] = {}

    def first_cursor(rem: int, terms: int, cap: int) -> int:
        return bisect_right(powers, rem - (terms - 1) * min_w, 0, cap + 1) - 1

    # Explicit DFS stack of [rem, terms, cap, cursor]; a frame's cap is its parent's pick.
    stack = [[Z, s, n - 1, first_cursor(Z, s, n - 1)]]
    node_budget = DEFAULT_NODE_BUDGET
    while stack and node_budget > 0:
        rem, terms, cap, cur = stack[-1]
        if terms == 1:
            node_budget -= 1
            j = bisect_left(powers, rem, 0, cap + 1)
            if j <= cap and powers[j] == rem:
                picks = [frame[2] for frame in stack[1:]] + [j]
                sol = WGSolution(Z, e, tuple(sorted(int(ps[i]) for i in picks)))
                if not sol.verify():
                    raise VerificationError(
                        f"find_solution(Z={Z}, s={s}, e={e}) produced an invalid "
                        f"solution: primes {sol.primes}"
                    )
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


def _power_residues(x: np.ndarray, e: int, q: int) -> np.ndarray:
    """x^e mod q for residues 0 <= x < q by left-to-right square-and-multiply,
    each int64 product of two residues reduced at once (exact while q^2 < 2^63)."""
    r = x
    for bit in bin(e)[3:]:
        r = r * r % q
        if bit == "1":
            r = r * x % q
    return r


def _local_factors(Z: int, s: int, e: int, q_max: int) -> list[complex]:
    """A[q] = phi(q)^-s * sum_{(h,q)=1} S(q,h)^s e(-hZ/q) for 1 <= q <= q_max (A[0] = 0).

    Exponential sums run only at prime powers q = p^m: S(q,h) runs over the
    residues l not divisible by p of e(h l^e / q), the residues h l^e mod q
    are exact, S(q, .) for all h comes from one FFT of the residue-count
    vector, and S is normalized by phi(q) before the s-th power to keep
    magnitudes bounded.  The units, power residues and phase indices hZ mod q
    are int64 arrays, each product of two residues below q reduced at once and
    Z reduced mod q first, so they are exact for every e and Z.  A composite q
    with p^m || q takes A[p^m] * A[q / p^m], both already known.
    """
    spf = smallest_prime_factors(q_max).tolist()
    A = [0j, 1 + 0j][: q_max + 1]  # q = 1: phi = 1, one unit h = 0, S = 1
    for q in range(2, q_max + 1):
        p = spf[q]
        rest = q // p
        while rest % p == 0:
            rest //= p
        if rest > 1:  # q = p^m * rest with rest coprime to p
            A.append(A[q // rest] * A[rest])
            continue
        coprime = np.ones(q, dtype=bool)
        coprime[::p] = False
        units = np.flatnonzero(coprime)
        phi = len(units)
        counts = np.bincount(_power_residues(units, e, q), minlength=q).astype(np.float64)
        # FFT gives F[h] = sum_r counts[r] e(-hr/q); S(q,h) is its conjugate
        S_over_phi = np.conj(np.fft.fft(counts))[units] / phi
        phase_idx = (units * (Z % q) % q).astype(np.float64)
        phases = np.exp(-2j * np.pi * phase_idx / q)
        A.append(complex((S_over_phi**s * phases).sum()))
    return A


def singular_series(Z: int, s: int, e: int, q_max: int = DEFAULT_QMAX) -> SingularSeriesEstimate:
    """Truncated singular series sum_{q <= q_max} phi(q)^-s * sum_{(h,q)=1} S(q,h)^s e(-hZ/q).

    The q-term is multiplicative in q (Chinese remainder theorem), so
    exponential sums run only at prime powers and a composite q's term is the
    product of its prime-power local factors (``_local_factors``).  Each
    prime-power term is bit-identical to the direct evaluation; a composite
    term differs from it only by the rounding of the product.  The real parts
    are summed with ``math.fsum``.  The int64 residue products are exact only
    while (q_max - 1)^2 < 2^63, so a larger q_max raises ``ValueError`` before
    any modulus is evaluated.  An imaginary part above 1e-6 (1 + |value|)
    raises ``VerificationError``.
    """
    if s < 1 or e < 1:
        raise ValueError("need s >= 1, e >= 1")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if (q_max - 1) ** 2 >= 2**63:
        raise ValueError(f"q_max = {q_max} needs (q_max - 1)^2 < 2^63 for exact int64 residues")
    terms = _local_factors(Z, s, e, q_max)[1:]
    value = math.fsum(t.real for t in terms)
    resid = abs(math.fsum(t.imag for t in terms))
    if resid > 1e-6 * (1.0 + abs(value)):
        raise VerificationError(
            f"singular series for Z={Z}, s={s}, e={e} has non-real residue {resid}"
        )
    return SingularSeriesEstimate(value, q_max)


def hua_main_term(Z: int, s: int, e: int, ss: SingularSeriesEstimate) -> float:
    """ss * Gamma(1/e)^s / Gamma(s/e) * Z^(s/e - 1) / log(Z)^s, natural log."""
    if Z < 3 or s < 1 or e < 1:
        raise ValueError("main term needs Z >= 3, s >= 1, e >= 1")
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
