"""Admissible prime sets: construction, certification, and the repair identity.

A set of primes is k-admissible when the sums a(p_1) + ... + a(p_k) over its
k-element subsets are pairwise distinct.  Greedy growth in increasing prime
order yields an inclusion-maximal admissible set: a rejected candidate stays
rejected against every superset, since a subset-sum collision survives
extension.  For a prime p outside a maximal set S, some k-subset collision in
S u {p} must involve p exactly once, which rearranges into the repair identity
a(p) = sum(plus) - sum(minus) with 2k-1 primes of S.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import comb

from .coefficients import CoeffTable
from .errors import InfeasibleError, MemoryGuardError, TableTooSmallError, VerificationError
from .primes import is_prime
from .signs import prime_sets

MAX_STORED_SUMS = 10**8

METHOD_HASH = "hash-collision"
METHOD_BRUTE = "brute-force"


@dataclass(frozen=True)
class AdmissibleSet:
    """Certified admissible prime set.

    ``check_bound`` records the largest candidate prime examined while the
    certificate was established: for greedy output, maximality holds against
    every candidate up to it.  ``sums`` maps each k-subset sum to its
    subset when the builder kept that map (greedy growth does), else None.
    """

    k: int
    primes: tuple[int, ...]
    method: str
    check_bound: int
    sums: dict[int, tuple[int, ...]] | None = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.primes)

    def __contains__(self, p: int) -> bool:
        return p in set(self.primes)


@dataclass(frozen=True)
class AdmissibleCheck:
    ok: bool
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class RepairWitness:
    """Primes of an admissible set expressing a(p) = sum(plus) - sum(minus)."""

    p: int
    plus: tuple[int, ...]   # k primes
    minus: tuple[int, ...]  # k-1 primes

    def verify(self, table: CoeffTable) -> bool:
        lhs = table.a(self.p)
        rhs = sum(table.a(q) for q in self.plus) - sum(table.a(q) for q in self.minus)
        return lhs == rhs and self.p not in self.plus and self.p not in self.minus


@dataclass(frozen=True)
class CardinalityReport:
    size: int
    M: int
    k: int
    bound_value: float  # M^((2k-1)/(2k))
    ratio: float
    lower_bound_met: bool  # size >= 2k


def _check_k(k: int) -> None:
    """Subsets of size k >= 1 only: k = 0 has one empty subset and no repair identity."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def is_admissible(
    primes,
    k: int,
    table: CoeffTable,
    method: str = METHOD_HASH,
) -> AdmissibleCheck:
    """Test pairwise distinctness of all k-subset coefficient sums.

    ``hash-collision`` enumerates the C(|primes|, k) sorted subsets once,
    hashing sums.  ``brute-force`` compares every pair of subsets directly
    and is restricted to |primes| <= 12 (it exists as a cross-check oracle).
    Returns the first collision found as a counterexample pair.  More than
    ``MAX_STORED_SUMS`` subsets raise ``MemoryGuardError`` before any is hashed.
    """
    _check_k(k)
    ps = sorted(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("duplicate primes in candidate set")
    if len(ps) < k:
        raise ValueError(f"need at least k={k} primes, got {len(ps)}")
    if method == METHOD_BRUTE:
        if len(ps) > 12:
            raise ValueError("brute-force check is capped at 12 primes")
        subsets = [(t, sum(table.a(q) for q in t)) for t in itertools.combinations(ps, k)]
        for i in range(len(subsets)):
            for j in range(i + 1, len(subsets)):
                if subsets[i][1] == subsets[j][1]:
                    return AdmissibleCheck(False, (subsets[i][0], subsets[j][0]))
        return AdmissibleCheck(True)
    if method != METHOD_HASH:
        raise ValueError(f"unknown method {method!r}")
    if comb(len(ps), k) > MAX_STORED_SUMS:
        raise MemoryGuardError(
            f"C({len(ps)}, {k}) = {comb(len(ps), k)} subset sums exceed the "
            f"{MAX_STORED_SUMS} budget"
        )
    seen: dict[int, tuple[int, ...]] = {}
    for t in itertools.combinations(ps, k):
        s = sum(table.a(q) for q in t)
        other = seen.get(s)
        if other is not None:
            return AdmissibleCheck(False, (other, t))
        seen[s] = t
    return AdmissibleCheck(True)


class _SubsetSums:
    """Incrementally maintained j-subset coefficient sums, j = 0..k.

    ``by_size[j]`` maps each distinct j-sum to one subset with it;
    ``repeats[j]`` records whether two j-subsets share a sum.  The store
    holds at most ``MAX_STORED_SUMS`` entries.
    """

    def __init__(self, k: int):
        self.k = k
        self.by_size: list[dict[int, tuple[int, ...]]] = [{0: ()}] + [{} for _ in range(k)]
        self.repeats = [False] * (k + 1)
        self.stored = 0

    def conflicts(self, ap: int) -> bool:
        """Would adding a prime with coefficient ap collide at size k?"""
        if self.repeats[self.k - 1]:
            return True
        sums_k = self.by_size[self.k]
        return any(ap + s in sums_k for s in self.by_size[self.k - 1])

    def add(self, p: int, ap: int) -> None:
        added = sum(len(self.by_size[j - 1]) for j in range(1, self.k + 1))
        if self.stored + added > MAX_STORED_SUMS:
            raise MemoryGuardError(
                f"subset-sum store would exceed {MAX_STORED_SUMS} entries at candidate {p}"
            )
        for j in range(self.k, 0, -1):
            target = self.by_size[j]
            for s, subset in self.by_size[j - 1].items():
                if ap + s in target:
                    self.repeats[j] = True
                else:
                    target[ap + s] = subset + (p,)
            # a repeated (j-1)-sum repeats at size j with p added to both subsets
            self.repeats[j] = self.repeats[j] or self.repeats[j - 1]
        self.stored += added


def greedy_maximal(
    candidates,
    k: int,
    table: CoeffTable,
    size_target: int | None = None,
) -> AdmissibleSet:
    """Grow an admissible subset of the candidates in increasing prime order.

    Without ``size_target`` every candidate is processed, so the result is
    inclusion-maximal: each excluded prime collides with the returned set.
    ``size_target`` stops growth early (certificate then only covers
    candidates up to ``check_bound``); it exists because the full k-subset
    store is infeasible for large k over large candidate pools.
    """
    _check_k(k)
    cands = sorted(candidates)
    if len(cands) < 2 * k:
        raise InfeasibleError(f"need at least 2k = {2 * k} candidates, got {len(cands)}")
    if size_target is None and comb(len(cands), k) > MAX_STORED_SUMS:
        # a full maximality pass could have to store this many k-subset sums
        raise MemoryGuardError(
            f"maximality over {len(cands)} candidates may need "
            f"C({len(cands)}, {k}) = {comb(len(cands), k)} stored sums "
            f"(budget {MAX_STORED_SUMS}); pass size_target to grow partially"
        )
    store = _SubsetSums(k)
    chosen: list[int] = []
    last = 0
    for p, ap in zip(cands, table.iter_a(cands)):
        if size_target is not None and len(chosen) >= size_target:
            break
        if not store.conflicts(ap):
            store.add(p, ap)
            chosen.append(p)
        last = p
    if len(chosen) < 2 * k:
        raise InfeasibleError(
            f"greedy growth reached only {len(chosen)} < 2k = {2 * k} primes; raise M"
        )
    return AdmissibleSet(k, tuple(chosen), METHOD_HASH, last, store.by_size[k])


def dyadic_construction(table: CoeffTable, k: int, l0: int) -> AdmissibleSet:
    """One large-coefficient prime from each interval [2^(l0*i), 2^(l0*i+1)], i = 1..2k.

    Picks the smallest qualifying prime per interval (deterministic), then
    certifies admissibility and the strict growth of |a(p_i)| across the
    chain.  Needs the table to reach 2^(2k*l0 + 1).
    """
    _check_k(k)
    if l0 < 1:
        raise ValueError("l0 must be >= 1")
    need = 1 << (2 * k * l0 + 1)
    if table.n_max < need:
        raise TableTooSmallError(
            f"construction needs indices up to 2^{2 * k * l0 + 1}, table has {table.n_max}"
        )
    candidates, has_large = prime_sets(table, need)
    picks: list[int] = []
    for i in range(1, 2 * k + 1):
        lo, hi = 1 << (l0 * i), 1 << (l0 * i + 1)
        window = candidates[bisect_left(candidates, lo): bisect_right(candidates, hi)]
        pick = next((p for p in window if has_large(p)), None)
        if pick is None:
            raise InfeasibleError(
                f"no large-coefficient prime in [2^{l0 * i}, 2^{l0 * i + 1}]"
            )
        picks.append(pick)
    coeffs = [abs(table.a(p)) for p in picks]
    for i in range(len(coeffs) - 1):
        if coeffs[i] >= coeffs[i + 1]:
            raise InfeasibleError(
                f"coefficient growth chain fails between {picks[i]} and {picks[i + 1]}"
            )
    check = is_admissible(picks, k, table)
    if not check.ok:
        raise InfeasibleError(f"dyadic picks are not admissible: {check.counterexample}")
    return AdmissibleSet(k, tuple(picks), METHOD_HASH, picks[-1])


def repair(p: int, S: AdmissibleSet, table: CoeffTable) -> RepairWitness:
    """Express a(p) through 2k-1 primes of the maximal set S.

    Locates a k-subset collision of S u {p} involving p (meet-in-the-middle:
    a(p) + each (k-1)-subset sum, in lexicographic order, looked up among the
    k-subset sums of S) and rearranges it.  The k-subset sums are S.sums when
    S carries them and are hashed here otherwise.  Failing to find a
    collision means S u {p} is admissible, i.e. the maximality precondition
    does not hold.  A p that is not prime raises ``ValueError``: the
    identity is defined for primes only.
    """
    if not is_prime(p):
        raise ValueError(f"repair needs a prime p, got {p}")
    members = S.primes
    if p in members:
        raise ValueError(f"{p} is already a member of the admissible set")
    k = S.k
    n = len(members)
    needed = comb(n, k) + comb(n, k - 1)
    if needed > MAX_STORED_SUMS:
        raise MemoryGuardError(
            f"subset-sum enumeration of C({n}, {k}) + C({n}, {k - 1}) = {needed} sums "
            f"exceeds the {MAX_STORED_SUMS} budget"
        )
    sums_k = S.sums
    if sums_k is None:
        sums_k = {}
        for t in itertools.combinations(members, k):
            sums_k.setdefault(sum(table.a(q) for q in t), t)
    ap = table.a(p)
    for t in itertools.combinations(members, k - 1):
        s = ap + sum(table.a(q) for q in t)
        hit = sums_k.get(s)
        if hit is not None:
            witness = RepairWitness(p, hit, t)
            if not witness.verify(table):
                raise VerificationError(f"repair witness fails exact re-check for p={p}")
            return witness
    raise InfeasibleError(
        f"no subset-sum collision for p={p}: S u {{p}} is admissible, "
        "so the maximality precondition is violated"
    )


def cardinality_report(S: AdmissibleSet | int, M: int, k: int) -> CardinalityReport:
    """Size of S against the reference scale M^((2k-1)/(2k))."""
    size = len(S.primes) if isinstance(S, AdmissibleSet) else int(S)
    bound = float(M ** ((2 * k - 1) / (2 * k)))
    return CardinalityReport(size, M, k, bound, size / bound, size >= 2 * k)
