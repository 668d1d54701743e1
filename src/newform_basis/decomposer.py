"""Verified representations Z = sum_j a(n_j), by two independent routes.

The constructive route follows the additive-basis argument end to end:
shift small targets up with one oversized coefficient, split off remainders
r1 (mod C0 = -a(n_f)) and r0 (mod K), solve the resulting prime-power
equation over candidate primes outside a maximal admissible set, expand each
prime power through the repair identity, absorb the negatively-signed terms
by multiplying their indices by n_f, and pad with a(1) = 1.

The search route is independent of all of that: iterative-deepening
meet-in-the-middle over multisets of table values, used as a desk-scale
witness generator and cross-check.

Every decomposition returned by either route re-verifies exactly before it
leaves this module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial, gcd

import numpy as np

from .admissible import AdmissibleSet, RepairWitness, greedy_maximal, repair
from .coefficients import CoeffTable
from .errors import InfeasibleError, TableTooSmallError, VerificationError
from .signs import first_negative, prime_sets
from .waring_goldbach import find_solution, hua_constants, prime_powers

ROUTE_CONSTRUCTIVE = "constructive"
ROUTE_SEARCH = "search"

SEARCH_ELL_DEFAULT = 74000  # historical worst-case summand count for the motivating form

# Constructive route, k = 1: the first solve only uses pool primes whose
# repair partner is at most PARTNER_CAP, keeping decomposition indices cheap
# to factor during verification; the cap grows eightfold on each miss.
PARTNER_CAP = 10_000
# Search route: at most CANDIDATE_CAP half-sum splits are reconstructed per
# depth, and targets with |Z| <= BAND_LIMIT share one precomputed band of splits.
CANDIDATE_CAP = 16
BAND_LIMIT = 128


@dataclass(frozen=True)
class CfBound:
    """Explicit summand bound C0*(k*s0 + 3) + k*s0 + 1 with C0 = -a(n_f)."""

    C0: int
    k: int
    s0: int
    value: int


@dataclass(frozen=True)
class PrimePowerExpansion:
    """Signed index lists with sum(a(plus)) - sum(a(minus)) = p^(2k-1)."""

    p: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class Decomposition:
    """Multiset of coefficient indices representing Z.

    ``terms`` holds (index, multiplicity) pairs sorted by index; ``bound``
    is the declared ceiling for ``ell`` on this route and run.
    """

    Z: int
    terms: tuple[tuple[int, int], ...]
    route: str
    bound: int
    s_used: int | None = None
    shifts: int = 0

    @property
    def ell(self) -> int:
        return sum(m for _, m in self.terms)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    delta: int
    ell: int
    bound: int
    max_index: int
    index_ratio: float


def cf_bound(table: CoeffTable) -> CfBound:
    """Summand bound of the form, from n_f and the sufficient summand count."""
    n_f = first_negative(table).n_f
    C0 = -table.a(n_f)
    k = table.k
    s0 = hua_constants(2 * k - 1).s0
    return CfBound(C0, k, s0, C0 * (k * s0 + 3) + k * s0 + 1)


def prime_power_expand(p: int, S: AdmissibleSet, table: CoeffTable) -> PrimePowerExpansion:
    """p^(2k-1) as a signed sum of coefficients at indices p*p_i and p^2.

    Multiplies the repair identity for a(p) by a(p) (multiplicativity applies
    since p is coprime to every witness prime) and subtracts a(p^2) through
    the prime-square identity.  The result re-verifies exactly or raises.
    """
    witness: RepairWitness = repair(p, S, table)
    for q in witness.plus + witness.minus:
        if gcd(p, q) != 1:
            raise VerificationError(f"witness prime {q} is not coprime to {p}")
    plus = tuple(sorted(p * q for q in witness.plus))
    minus = tuple(sorted(p * q for q in witness.minus)) + (p * p,)
    value = p ** (table.weight - 1)
    total = sum(table.value_at(i) for i in plus) - sum(table.value_at(i) for i in minus)
    if total != value:
        raise VerificationError(
            f"prime-power expansion of {p} re-sums to {total}, expected {value}"
        )
    return PrimePowerExpansion(p, plus, minus, value)


def verify_decomposition(d: Decomposition, table: CoeffTable) -> VerifyReport:
    """Exact re-summation, term-count bound, and index-size report.

    ``ok`` requires the sum to match exactly and ell <= bound; the index
    ratio max(n_j) / (|Z|^(2/(2k-1)) + 1) is informational.
    """
    total = 0
    max_index = 0
    for n, mult in d.terms:
        if n < 1 or mult < 1:
            raise ValueError(f"malformed term ({n}, {mult})")
        total += mult * table.value_at(n)
        max_index = max(max_index, n)
    delta = total - d.Z
    denom = float(abs(d.Z)) ** (2.0 / (table.weight - 1)) + 1.0
    ratio = max_index / denom
    ok = delta == 0 and d.ell <= d.bound
    return VerifyReport(ok, delta, d.ell, d.bound, max_index, ratio)


def _verified(d: Decomposition, table: CoeffTable) -> Decomposition:
    """The one exit of both routes: d, once it re-sums exactly and ell <= bound."""
    report = verify_decomposition(d, table)
    if not report.ok:
        raise VerificationError(
            f"{d.route} route result for Z={d.Z} re-sums off by {report.delta} "
            f"with ell={report.ell} against bound {report.bound}"
        )
    return d


class ConstructivePipeline:
    """Reusable constructive decomposer for one table and summand count.

    Builds the candidate primes (every prime of the table), the maximal
    admissible set S with its k-subset sums, and the solver pools once (each
    prepared as ascending primes and their (2k-1)-th powers, which every solve
    cuts without copying); ``decompose`` then handles any number of targets.

    s is the summand count for the prime-power equation (default: the
    sufficient count s0 for exponent 2k-1; any s >= 2 is allowed and is
    recorded on the output).  Targets at or below the threshold T, a
    quarter of the largest positive coefficient, are shifted up first.
    """

    def __init__(self, table: CoeffTable, s: int | None = None):
        self.table = table
        self.k = table.k
        self.e = table.weight - 1
        hua = hua_constants(self.e)
        self.K = hua.K
        self.s0 = hua.s0
        self.s = self.s0 if s is None else s
        if self.s < 2:
            raise ValueError("need s >= 2 summands")
        sign = first_negative(table)
        self.n_f = sign.n_f
        self.C0 = -table.a(self.n_f)
        candidates, _ = prime_sets(table, table.n_max)
        self.S = greedy_maximal(candidates, self.k, table)
        members = set(self.S.primes)
        self.pool = [p for p in candidates if p not in members]
        self.T = table.max_positive() // 4
        self._expansions: dict[int, PrimePowerExpansion] = {}
        # the solves of one target try these pools in turn, the full pool last
        pools: list[list[int]] = []
        if self.k == 1:
            partners = [self.S.sums[table.a(p)][0] for p in self.pool]
            cap = PARTNER_CAP
            while cap < table.n_max:
                pools.append([p for p, q in zip(self.pool, partners) if q <= cap])
                cap *= 8
        self._pools = [prime_powers(pool, self.e) for pool in pools + [self.pool] if pool]

    def _shift_index(self, x: int) -> int:
        """Smallest index n with a(n) > x."""
        values, indices = self.table.positive_records()
        j = bisect_right(values, x)
        if j == len(values):
            raise TableTooSmallError(f"no coefficient exceeds {x}; extend the table")
        return indices[j]

    def _expand_target(self, W: int) -> Counter:
        """Index multiplicities realizing C0 * W through prime-power expansions."""
        counts: Counter[int] = Counter()
        if W == 0:
            return counts
        for pool in self._pools:
            solution = find_solution(abs(W), self.s, self.e, allowed=pool)
            if solution is not None:
                break
        else:
            raise InfeasibleError(
                f"no {self.s}-term prime-power solution for {abs(W)} over the "
                f"candidate pool of the table to n_max={self.table.n_max}"
            )
        negate = W < 0
        for q, mult in sorted(Counter(solution.primes).items()):
            if q not in self._expansions:
                self._expansions[q] = prime_power_expand(q, self.S, self.table)
            exp = self._expansions[q]
            plus, minus = (exp.minus, exp.plus) if negate else (exp.plus, exp.minus)
            for i in plus:
                counts[i] += self.C0 * mult
            for j in minus:
                if gcd(j, self.n_f) != 1:
                    raise VerificationError(f"index {j} shares a factor with n_f={self.n_f}")
                counts[self.n_f * j] += mult
        return counts

    def decompose(self, Z: int) -> Decomposition:
        """Verified constructive decomposition of Z.

        Targets at or below the threshold T are first shifted up by an
        oversized positive coefficient; the same shift retries a failed
        prime-power solve, since growing the working target re-enters the
        range where the candidate pool is dense.  Raises InfeasibleError
        when the table's coefficients cannot shift the target into a
        solvable range: with the level-11 table to 10^5, Z = 148 and
        Z = 10^6 fail, while the table to 3*10^5 decomposes Z = 148.
        """
        if Z == 0:
            d = Decomposition(0, (), ROUTE_CONSTRUCTIVE, self._run_bound(0), self.s)
            return _verified(d, self.table)
        shift_indices: list[int] = []
        cur = Z

        def shift_once(reason: str) -> None:
            if len(shift_indices) >= 64:
                raise InfeasibleError(f"shift limit reached while {reason}")
            nonlocal cur
            try:
                n_prime = self._shift_index(2 * abs(cur))
            except TableTooSmallError:
                raise InfeasibleError(
                    f"stuck {reason}: no coefficient exceeds {2 * abs(cur)} "
                    f"in the table to n_max={self.table.n_max}; extend the table"
                ) from None
            shift_indices.append(n_prime)
            cur -= self.table.a(n_prime)

        while abs(cur) <= self.T:
            shift_once("escaping the small-target threshold")
        while True:
            r1 = cur % self.C0
            Z0 = (cur - r1) // self.C0
            r0 = (Z0 - self.s) % self.K
            W = Z0 - r0
            try:
                counts = self._expand_target(W)
                break
            except InfeasibleError:
                shift_once(f"retrying the prime-power solve past W={W}")
        pad = self.C0 * r0 + r1
        if pad:
            counts[1] += pad
        for n_prime in shift_indices:
            counts[n_prime] += 1
        d = Decomposition(
            Z,
            tuple(sorted(counts.items())),
            ROUTE_CONSTRUCTIVE,
            self._run_bound(len(shift_indices)),
            self.s,
            len(shift_indices),
        )
        return _verified(d, self.table)

    def _run_bound(self, shifts: int) -> int:
        # equals the closed-form summand bound when s = s0 and shifts <= 1
        return (self.C0 + 1) * self.k * self.s + 3 * self.C0 + 1 + max(0, shifts - 1)


def decompose_constructive(table: CoeffTable, Z: int, s: int | None = None) -> Decomposition:
    """One-shot constructive decomposition (build a ConstructivePipeline to reuse setup)."""
    return ConstructivePipeline(table, s=s).decompose(Z)


def _multiset_sums(vals: np.ndarray, h: int) -> np.ndarray:
    """Sums over non-decreasing index h-tuples of vals (C(len+h-1, h) entries)."""
    if h == 1:
        return vals
    parts = [vals[i] + _multiset_sums(vals[i:], h - 1) for i in range(len(vals))]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


class SearchDecomposer:
    """Iterative-deepening meet-in-the-middle over multisets of coefficient values.

    The h-sum table over a pool size K holds the distinct values of
    a(i_1) + ... + a(i_h) over 1 <= i_1 <= ... <= i_h <= K, ascending, in
    int64.  Depth ell = h1 + h2 meets the h1- and h2-sum tables, each over the
    pool sized for its half to the half-sum budget and to int64 headroom;
    at ell = 2, 3 the first half is instead every a(n), n <= n_max, as an
    exact int.  Tables are cached by (h, K), so one instance amortizes across
    many targets.

    Ties break to the lexicographically smallest index list among the first
    CANDIDATE_CAP splits Z = s1 + s2 the meet finds (those of every
    |Z| <= BAND_LIMIT are precomputed once), each half's index tuple rebuilt
    from the tables by the smallest-first-index descent of ``_lexmin``.  A
    miss within the depth ceiling falls back to the exact a(1) / a(n_f)
    padding construction, and only budget exhaustion yields None (never a
    claim of impossibility).
    """

    MAX_MEET_DEPTH = 8

    def __init__(
        self, table: CoeffTable, n_max: int | None = None, half_sum_budget: int = 6_000_000
    ):
        self.table = table
        self.n_max = table.n_max if n_max is None else min(n_max, table.n_max)
        self.budget = half_sum_budget
        self.values = np.array([table.a(n) for n in range(1, self.n_max + 1)], dtype=object)
        self._value_first_index: dict[int, int] = {}
        for i, v in enumerate(self.values, start=1):
            self._value_first_index.setdefault(v, i)
        self._prefix_abs_max = np.maximum.accumulate(np.abs(self.values))
        # every index pool stops before |a(n)| passes 2^61, so its values fit int64
        headroom = int(np.searchsorted(self._prefix_abs_max, 1 << 61, side="right"))
        self._ints = self.values[:headroom].astype(np.int64)
        self._pools: dict[int, int] = {}
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._band_cache: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}

    def _pool(self, h: int) -> int:
        """Pool size K for h-sum tables: C(K+h-1, h) <= budget and h*|a(n)| <= 2^61."""
        K = self._pools.get(h)
        if K is None:
            K = min(self.n_max, int((self.budget * factorial(h)) ** (1.0 / h)) + 2)
            while K > 1 and comb(K + h - 1, h) > self.budget:
                K -= 1
            limit = (1 << 61) // h
            K = min(K, int(np.searchsorted(self._prefix_abs_max, limit, side="right")))
            self._pools[h] = K
        return K

    def _sums(self, h: int, K: int) -> np.ndarray:
        """The h-sum table over indices 1..K."""
        sums = self._tables.get((h, K))
        if sums is None:
            sums = np.sort(_multiset_sums(self._ints[:K], h))
            distinct = np.ones(len(sums), dtype=bool)
            np.not_equal(sums[1:], sums[:-1], out=distinct[1:])
            sums = sums[distinct]
            self._tables[(h, K)] = sums
        return sums

    def _half_table(self, h: int) -> np.ndarray:
        return self._sums(h, self._pool(h))

    def _lexmin(self, s: int, h: int, K: int) -> tuple[int, ...]:
        """Lexicographically smallest non-decreasing index h-tuple over 1..K summing to s.

        s must be an h-sum over 1..K.  The tuple's smallest index is the first
        i with s - a(i) an (h-1)-sum over 1..K, and the rest of the tuple is
        the same descent from s - a(i), down to the first index of a value.
        """
        head: list[int] = []
        vals = self._ints[:K]
        for r in range(h - 1, 0, -1):
            rest = self._sums(r, K)
            comps = s - vals
            i = int(np.argmax(rest.take(np.searchsorted(rest, comps), mode="clip") == comps))
            head.append(i + 1)
            s -= int(vals[i])
        return (*head, self._value_first_index[s])

    def _meet(self, Z: int, h1: int, h2: int) -> list[tuple[int, int]]:
        """Candidate (s1, s2) half-sum splits with s1 + s2 = Z, capped and ordered."""
        sums2 = self._half_table(h2)
        if not len(sums2):
            return []
        lo, hi = int(sums2[0]), int(sums2[-1])
        if h1 == 1:
            firsts = self.values[(self.values >= Z - hi) & (self.values <= Z - lo)]
            comps = (Z - firsts).astype(np.int64)
        elif abs(Z) <= BAND_LIMIT:
            return self._band_pairs(h1, h2).get(Z, [])
        elif abs(Z) >= 1 << 61:
            return []
        else:
            sums1 = self._half_table(h1)
            firsts = sums1[np.searchsorted(sums1, Z - hi):np.searchsorted(sums1, Z - lo, "right")]
            comps = Z - firsts
        hits = sums2.take(np.searchsorted(sums2, comps), mode="clip") == comps
        return [(int(firsts[j]), int(comps[j])) for j in np.flatnonzero(hits)[:CANDIDATE_CAP]]

    def _band_pairs(self, h1: int, h2: int) -> dict[int, list[tuple[int, int]]]:
        """All (s1, s2) splits with |s1 + s2| <= BAND_LIMIT, grouped by total.

        Built once per half-depth combination with two vectorized range
        queries per chunk; amortizes meets over many small targets.
        """
        cached = self._band_cache.get((h1, h2))
        if cached is not None:
            return cached
        sums1 = self._half_table(h1)
        sums2 = self._half_table(h2)
        band = BAND_LIMIT
        table: dict[int, list[tuple[int, int]]] = {}
        chunk = 2_000_000
        for st in range(0, len(sums1), chunk):
            a = sums1[st:st + chunk]
            lo = np.searchsorted(sums2, -band - a, side="left")
            hi = np.searchsorted(sums2, band - a, side="right")
            for j in np.flatnonzero(hi > lo):
                s1 = int(a[j])
                for u in sums2[lo[j]:hi[j]]:
                    s2 = int(u)
                    bucket = table.setdefault(s1 + s2, [])
                    if len(bucket) < CANDIDATE_CAP:
                        bucket.append((s1, s2))
        self._band_cache[(h1, h2)] = table
        return table

    def _baseline(self, Z: int, ell_max: int) -> Decomposition | None:
        """Exact fallback from a(1) = 1 and the first negative coefficient."""
        n_f = first_negative(self.table).n_f
        if n_f > self.n_max:
            return None
        c0 = -self.table.a(n_f)
        x = 0 if Z >= 0 else (-Z + c0 - 1) // c0  # ceil(-Z / c0)
        y = Z + x * c0
        if x + y > ell_max:
            return None
        terms = []
        if y:
            terms.append((1, y))
        if x:
            terms.append((n_f, x))
        return Decomposition(Z, tuple(sorted(terms)), ROUTE_SEARCH, ell_max)

    def decompose(self, Z: int, ell_max: int = SEARCH_ELL_DEFAULT) -> Decomposition | None:
        """Shortest-found multiset representation with at most ell_max terms."""
        d = self._search(Z, ell_max)
        return None if d is None else _verified(d, self.table)

    def _search(self, Z: int, ell_max: int) -> Decomposition | None:
        if Z == 0:
            return Decomposition(0, (), ROUTE_SEARCH, ell_max)
        if ell_max >= 1:
            i = self._value_first_index.get(Z)
            if i is not None:
                return Decomposition(Z, ((i, 1),), ROUTE_SEARCH, ell_max)
        for ell in range(2, min(ell_max, self.MAX_MEET_DEPTH) + 1):
            h1, h2 = ell // 2, ell - ell // 2
            pairs = self._meet(Z, h1, h2)
            if pairs:
                k1, k2 = self._pool(h1), self._pool(h2)
                best = min(sorted(self._lexmin(s1, h1, k1) + self._lexmin(s2, h2, k2))
                           for s1, s2 in pairs)
                terms = tuple(sorted(Counter(best).items()))
                return Decomposition(Z, terms, ROUTE_SEARCH, ell_max)
        return self._baseline(Z, ell_max)


def decompose_search(
    table: CoeffTable,
    Z: int,
    n_max: int | None = None,
    ell_max: int = SEARCH_ELL_DEFAULT,
) -> Decomposition | None:
    """One-shot search decomposition (instantiate SearchDecomposer for batches)."""
    return SearchDecomposer(table, n_max=n_max).decompose(Z, ell_max)
