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
from .errors import InfeasibleError, NotFoundError, TableTooSmallError, VerificationError
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
# Rows of the first half that one probe of a cross meet or band join handles
# at once, and the most keys and table entries of one merge piece of a
# self-join meet; 2^14 rows keep each of the probe's int64 temporaries at
# 128 KB and, for ascending rows, the slice of the second half one chunk
# searches within the 2 MB L2, which measured faster on search-delta than
# 2^13, 2^16 or 2^18.  The merge buffer is then 256 KB; as the merge piece,
# 2^13, 2^15 and 2^16 measured no faster on search-delta (2^16 read 1 MB
# more peak RSS).
PROBE_CHUNK = 1 << 14


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
    return CfBound(C0, k, s0, _summand_bound(C0, k, s0, 0))


def _summand_bound(C0: int, k: int, s: int, shifts: int) -> int:
    """C0*(k*s + 3) + k*s + 1, plus one for each shift after the first."""
    return C0 * (k * s + 3) + k * s + 1 + max(0, shifts - 1)


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
            partners = [self.S.sums[ap][0] for ap in table.iter_a(self.pool)]
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
            bound = _summand_bound(self.C0, self.k, self.s, 0)
            d = Decomposition(0, (), ROUTE_CONSTRUCTIVE, bound, self.s)
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
            _summand_bound(self.C0, self.k, self.s, len(shift_indices)),
            self.s,
            len(shift_indices),
        )
        return _verified(d, self.table)


def _multiset_sums(vals: np.ndarray, h: int) -> np.ndarray:
    """Sums over non-decreasing index h-tuples of vals (C(len+h-1, h) entries).

    Each level lists its tuples by first index, so the (r-1)-tuples with first
    index >= i are the last C(K-i+r-2, r-1) entries of level r-1, and level r
    is vals[i] plus that suffix for i = 0..K-1, written into one preallocated
    array.  The order is lexicographic in the index tuple; h = 1 returns vals.
    """
    K = len(vals)
    level = vals
    for r in range(2, h + 1):
        out = np.empty(comb(K + r - 1, r), dtype=np.int64)
        end = 0
        for i in range(K):
            n = comb(K - i + r - 2, r - 1)
            np.add(level[len(level) - n:], vals[i], out=out[end:end + n])
            end += n
        level = out
    return level


def _probe(firsts: np.ndarray, sums2: np.ndarray, Z: int, width: int):
    """Rows s1 of firsts whose window [Z-width-s1, Z+width-s1] meets sums2, chunk by chunk.

    Probes PROBE_CHUNK rows of firsts at a time and yields that chunk's hit
    rows s1, in the order of firsts, with lo, the index in the ascending
    array sums2 of each window's first entry.  Each chunk searches only the
    slice sums2[b0:b1] from its lowest to its highest low end: every lo lies
    in [b0, b1], so each row finds the same lo as in all of sums2, and for
    ascending firsts the slice is about a chunk long and stays in cache.
    The low ends, the entries they find and the hit mask fill buffers of one
    chunk allocated once per call; only searchsorted, which has no out=,
    returns a fresh array per chunk.  A caller that stops early leaves the
    later chunks unprobed.  Every low end, and its difference from every
    entry of sums2, must fit int64; the slice bounds are searched with the
    chunk's own int64 low ends, so no key leaves int64.
    """
    if not len(sums2):
        return
    rows = min(len(firsts), PROBE_CHUNK)
    low_rows, found_rows = np.empty(rows, np.int64), np.empty(rows, np.int64)
    hit_rows = np.empty(rows, bool)
    for st in range(0, len(firsts), PROBE_CHUNK):
        a = firsts[st:st + PROBE_CHUNK]
        low, found, hit = low_rows[:len(a)], found_rows[:len(a)], hit_rows[:len(a)]
        np.subtract(Z - width, a, out=low, casting="unsafe")  # object rows cast exactly or raise
        b0, b1 = sums2.searchsorted(low.min()), sums2.searchsorted(low.max())
        lo = sums2[b0:b1].searchsorted(low)
        lo += b0
        sums2.take(lo, mode="clip", out=found)
        # found - low lies in [0, 2 width] exactly on a hit; past the end of
        # sums2 it is negative, which the unsigned view puts above 2 width
        np.subtract(found, low, out=found)
        np.less_equal(found.view(np.uint64), 2 * width, out=hit)
        yield a[hit], lo[hit]


def _splits(firsts: np.ndarray, sums2: np.ndarray, Z: int, width: int) -> dict[int, list]:
    """Pairs (s1, s2) in firsts x sums2 with |s1 + s2 - Z| <= width, grouped by total.

    Walks ``_probe``; each group keeps its first CANDIDATE_CAP pairs in the
    order of firsts and then s2.  The walk stops after the row that fills
    the last of the 2 width + 1 groups, when no later row can change one.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    unfilled = 2 * width + 1
    for hits, starts in _probe(firsts, sums2, Z, width):
        stops = sums2.searchsorted(np.asarray((Z + width) - hits, np.int64), "right")
        for s1, start, stop in zip(hits.tolist(), starts.tolist(), stops.tolist()):
            for s2 in sums2[start:stop].tolist():
                group = groups.setdefault(s1 + s2, [])
                if len(group) < CANDIDATE_CAP:
                    group.append((s1, s2))
                    unfilled -= len(group) == CANDIDATE_CAP
            if not unfilled:
                return groups
    return groups


def _self_meet(sums: np.ndarray, firsts: np.ndarray, Z: int) -> list[tuple[int, int]]:
    """``_splits(firsts, sums, Z, 0).get(Z, [])`` by a bounded sorted merge.

    firsts is an ascending slice of the ascending, deduplicated int64 table
    sums, each of whose complements Z - s1 lies in sums' range; a self-join
    passes only its rows s1 <= Z // 2.  The rows ascend, so their keys
    Z - s1 descend, and a split is a key that is also an entry of sums.
    Each step writes into one buffer of 2 PROBE_CHUNK entries a piece of at
    most PROBE_CHUNK keys, reversed so that they ascend, and the slice of
    sums they span; a slice longer than PROBE_CHUNK keeps its top
    PROBE_CHUNK entries and the piece shrinks to the keys it still reaches.
    A stable sort (timsort for int64, which merges the two ascending runs in
    linear time) then puts each split's key beside its entry.  The walk
    stops after the piece that brings the splits to CANDIDATE_CAP.
    """
    buf = np.empty(2 * PROBE_CHUNK, np.int64)
    found: list[int] = []
    st = 0
    while st < len(firsts) and len(found) < CANDIDATE_CAP:
        piece = firsts[st:st + PROBE_CHUNK]
        b0, b1 = sums.searchsorted(Z - piece[-1]), sums.searchsorted(Z - piece[0], "right")
        if b1 - b0 > PROBE_CHUNK:
            b0 = b1 - PROBE_CHUNK
            piece = piece[:piece.searchsorted(Z - sums[b0], "right")]
        k, n = len(piece), len(piece) + b1 - b0
        np.subtract(Z, piece[::-1], out=buf[:k])
        buf[k:n] = sums[b0:b1]
        merged = buf[:n]
        merged.sort(kind="stable")
        hits = merged[1:][merged[1:] == merged[:-1]]
        found += (Z - hits[::-1]).tolist()  # descending keys: the order of rows
        st += k
    return [(s1, Z - s1) for s1 in found[:CANDIDATE_CAP]]


class SearchDecomposer:
    """Iterative-deepening meet-in-the-middle over multisets of coefficient values.

    The h-sum table over a pool size K holds the distinct values of
    a(i_1) + ... + a(i_h) over 1 <= i_1 <= ... <= i_h <= K, ascending, in
    int64.  Depth ell = h1 + h2 <= MAX_MEET_DEPTH meets the h1- and h2-sum
    tables, each over the pool sized for its half to HALF_SUM_BUDGET entries
    and to h * max|a| <= 2^61, so every split total lies within 2^62 and every
    probe difference fits int64; at ell = 2, 3 the first half is instead every
    a(n), n <= n_max, from the table's own values.  Tables are cached by
    (h, K), so one instance amortizes across many targets.  The search ranges
    over every index; ``SearchDecomposer(table.truncate(m))`` searches n <= m.

    ``_multiset_sums`` builds a table level by level, each laid out by first
    index so that the tuples with first index >= i are a suffix of the level
    below; the table is then sorted and deduplicated in place.  Every meet
    and band takes its first-half rows from ``_rows``.  A target with
    |Z| <= BAND_LIMIT reads, at every depth, a band of the splits of every
    such total, joined once per half-depth combination.  A self-join
    (h1 = h2 >= 2) keeps only its lower rows, s1 <= Z // 2 in a meet and
    s1 <= BAND_LIMIT // 2 in the band: a split and its mirror rank alike, so
    the upper rows add no candidate.  A self-join meet is a sorted merge,
    ``_self_meet``; the cross meets (h1 != h2) and the bands are one
    collector, ``_splits``, over the chunked ``_probe``.  A meet holds at
    most one chunk or one merge buffer of temporaries beside the tables.

    Ties break to the lexicographically smallest index list among the first
    CANDIDATE_CAP splits Z = s1 + s2 the meet finds, each half's index tuple
    rebuilt from the tables by the smallest-first-index descent of
    ``_lexmin``: each level searches the pool in doubling chunks from the
    previous level's index and stops at its first hit.  A miss within the
    depth ceiling falls back to the exact a(1) / a(n_f) padding
    construction, and only budget exhaustion yields None (never a claim of
    impossibility).
    """

    MAX_MEET_DEPTH = 8
    HALF_SUM_BUDGET = 6_000_000

    def __init__(self, table: CoeffTable):
        self.table = table
        self.values = table._values
        self._value_first_index: dict[int, int] = {}
        for i, v in enumerate(self.values.tolist(), start=1):
            self._value_first_index.setdefault(v, i)
        self._prefix_abs_max = np.maximum.accumulate(np.abs(self.values))
        self._pools: dict[int, int] = {}
        self._ints = self.values[:self._pool(1)].astype(np.int64)
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._band_cache: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}

    def _pool(self, h: int) -> int:
        """Pool size K for h-sum tables: C(K+h-1, h) <= HALF_SUM_BUDGET, h*|a(n)| <= 2^61."""
        K = self._pools.get(h)
        if K is None:
            budget = self.HALF_SUM_BUDGET
            K = min(self.table.n_max, int((budget * factorial(h)) ** (1.0 / h)) + 2)
            while K > 1 and comb(K + h - 1, h) > budget:
                K -= 1
            limit = (1 << 61) // h
            K = min(K, int(np.searchsorted(self._prefix_abs_max, limit, side="right")))
            self._pools[h] = K
        return K

    def _sums(self, h: int, K: int) -> np.ndarray:
        """The h-sum table over indices 1..K."""
        sums = self._tables.get((h, K))
        if sums is None:
            sums = _multiset_sums(self._ints[:K], h)
            if h == 1:
                sums = sums.copy()  # a view of self._ints, which must keep index order
            sums.sort()
            # compact in place; row st - 1 is never overwritten before it is read
            n = min(len(sums), 1)
            for st in range(1, len(sums), PROBE_CHUNK):
                rows = sums[st - 1:st + PROBE_CHUNK]
                kept = rows[1:][rows[1:] != rows[:-1]]
                sums[n:n + len(kept)] = kept
                n += len(kept)
            sums = self._tables[(h, K)] = sums[:n]
        return sums

    def _half_table(self, h: int) -> np.ndarray:
        return self._sums(h, self._pool(h))

    def _first(self, s: int, r: int, K: int, start: int) -> int:
        """The smallest i >= start with s - a(i + 1) an r-sum over 1..K.

        Searches the pool values from start on in doubling chunks (16, 32,
        ...) and stops at the first chunk with a hit.
        """
        rest, vals = self._sums(r, K), self._ints[:K]
        width = 16
        while start < K:
            comps = s - vals[start:start + width]
            hit = rest.take(np.searchsorted(rest, comps), mode="clip") == comps
            if hit.any():
                return start + int(np.argmax(hit))
            start += width
            width *= 2
        raise ValueError(f"s = {s} is not a(i) plus a sum of {r} values over 1..{K}")

    def _lexmin(self, s: int, h: int, K: int) -> tuple[int, ...]:
        """Lexicographically smallest non-decreasing index h-tuple over 1..K summing to s.

        s must be an h-sum over 1..K.  The tuple's smallest index is the first
        i with s - a(i) an (h-1)-sum over 1..K, found by ``_first``'s
        doubling-chunk search, and the rest of the tuple is the same descent
        from s - a(i), down to the first index of a value.  Each level's
        search starts at the previous level's index, so the tuple is
        non-decreasing: a smaller index j at a later level would make s - a(j)
        a sum one level up, against that level's minimality.
        """
        head: list[int] = []
        i = 0
        for r in range(h - 1, 0, -1):
            i = self._first(s, r, K, i)
            head.append(i + 1)
            s -= int(self._ints[i])
        return (*head, self._value_first_index[s])

    def _rows(self, h1: int, low: int, high: int) -> np.ndarray:
        """The first-half rows s1 with low <= s1 <= high.

        At h1 = 1 they are the table's values in index order, repeats kept,
        else a slice of the ascending h1-sums.  Callers bound the rows to
        those whose window reaches the second half's range, so each row's
        difference from a second-half entry fits int64.  The bounds are cut
        to the h1-sums' range before the search, since a key past int64
        would cast the table to object.
        """
        if h1 == 1:
            return self.values[(self.values >= low) & (self.values <= high)]
        sums = self._half_table(h1)
        low, high = max(low, int(sums[0])), min(high, int(sums[-1]))
        if low > high:
            return sums[:0]
        return sums[sums.searchsorted(low):sums.searchsorted(high, "right")]

    def _meet(self, Z: int, h1: int, h2: int) -> list[tuple[int, int]]:
        """The first CANDIDATE_CAP splits (s1, s2) with s1 + s2 = Z, in row order.

        A target with |Z| <= BAND_LIMIT reads the band.  Otherwise the rows
        are those whose complement Z - s1 lies in the h2-sums' range; a
        self-join merges only its rows s1 <= Z // 2 with the table
        (``_self_meet``), and a cross meet takes ``_splits`` at width 0.
        """
        if abs(Z) <= BAND_LIMIT:
            return self._band_pairs(h1, h2).get(Z, [])
        sums2 = self._half_table(h2)
        low, high = Z - int(sums2[-1]), Z - int(sums2[0])
        if h1 == h2 >= 2:
            return _self_meet(sums2, self._rows(h1, low, min(high, Z // 2)), Z)
        return _splits(self._rows(h1, low, high), sums2, Z, 0).get(Z, [])

    def _band_pairs(self, h1: int, h2: int) -> dict[int, list[tuple[int, int]]]:
        """All (s1, s2) splits with |s1 + s2| <= BAND_LIMIT, grouped by total.

        ``_splits`` of the rows whose band window reaches the h2-sums, cut at
        BAND_LIMIT // 2 for a self-join, cached per half-depth combination
        so that meets over many small targets share it.  Each group holds
        the first CANDIDATE_CAP pairs of its total in row order.
        """
        if (h1, h2) not in self._band_cache:
            sums2 = self._half_table(h2)
            low, high = -BAND_LIMIT - int(sums2[-1]), BAND_LIMIT - int(sums2[0])
            if h1 == h2 >= 2:
                high = min(high, BAND_LIMIT // 2)
            self._band_cache[(h1, h2)] = _splits(self._rows(h1, low, high), sums2, 0, BAND_LIMIT)
        return self._band_cache[(h1, h2)]

    def _baseline(self, Z: int, ell_max: int) -> Decomposition | None:
        """Exact fallback from a(1) = 1 and, for Z < 0, the first negative coefficient."""
        if Z > 0:
            x, y, terms = 0, Z, []
        else:
            try:
                n_f = first_negative(self.table).n_f
            except NotFoundError:
                return None  # no negative coefficient to pad with
            c0 = -self.table.a(n_f)
            x = (-Z + c0 - 1) // c0  # ceil(-Z / c0)
            y = Z + x * c0
            terms = [(n_f, x)]
        if x + y > ell_max:
            return None
        if y:
            terms.append((1, y))
        return Decomposition(Z, tuple(sorted(terms)), ROUTE_SEARCH, ell_max)

    def decompose(self, Z: int, ell_max: int = SEARCH_ELL_DEFAULT) -> Decomposition | None:
        """Shortest-found multiset representation with at most ell_max >= 0 terms."""
        if ell_max < 0:
            raise ValueError(f"ell_max must be >= 0, got {ell_max}")
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
