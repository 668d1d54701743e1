"""The four benchmark workloads: seeded inputs, set-up, one pass, checks.

Each workload builds its inputs from the seed alone; the library sees only
those inputs.  A pass runs every operation of the input set once through
``Pass.call`` (timed, and traced when tracing is on) and checks each result
through ``Pass.check`` (untimed, never traced).  Checks use references the
benchmark computes itself wherever that is cheap: a naive eta-product
expansion, a prime sieve, exact re-summation and known values.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# tau(1..10), Ramanujan's function: the weight-12 level-1 coefficients.
TAU_1_10 = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

# Exact ordered counts of 8-tuples of prime cubes at the acceptance
# criterion 10 heights, recorded from the library when this benchmark was
# written; the package README describes the brute-force cross-check.
CRITERION10_COUNTS = {10**5: 0, 3 * 10**5: 1120, 10**6: 127680}


def naive_eta(factors, n_max: int) -> list[int]:
    """a(1..n_max) of q * prod_j (1 - q^(scale*j))^power, one factor at a time."""
    series = np.zeros(n_max, dtype=object)
    series[0] = 1
    for scale, power in factors:
        for j in range(1, (n_max - 1) // scale + 1):
            g = scale * j
            for _ in range(power):
                series[g:] = series[g:] - series[:-g]
    return [int(v) for v in series]


def prime_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


def crt_moduli(n_max: int, k: int) -> int:
    """Computed count of ~49-bit moduli whose product exceeds 2 * (2 n^k)."""
    need = 4 * n_max**k
    count, prod = 0, 1
    while prod <= need:
        count += 1
        prod *= 1 << 49  # the moduli are the primes just below 2^49
    return count


@dataclass
class Pass:
    """One pass over a workload's input set: timings, checks and outputs."""

    rec: object
    busy: float = 0.0  # summed duration of the timed calls, in seconds
    op_ms: list = field(default_factory=list)  # latency of each counted operation
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (input key, canonical output)

    def call(self, name: str, fn, *args, op: bool = True):
        """Time fn(*args) inside the benchmark's root span ``name``; an exception is returned, not raised."""
        t0 = time.perf_counter()
        try:
            with self.rec.span(name):
                out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        dt = time.perf_counter() - t0
        self.busy += dt
        if op:
            self.op_ms.append(dt * 1e3)
        return out

    def check(self, key, check, result, *args) -> None:
        """Record check(result, *args) -> (problem or None, canonical output), untraced."""
        with self.rec.paused():
            if isinstance(result, Exception):
                problem, output = f"raised {type(result).__name__}: {result}", None
            else:
                problem, output = check(result, *args)
        self.attempted += 1
        if problem:
            self.failures.append(f"{key}: {problem}")
        self.outputs.append((key, output))

    def digest(self) -> str:
        h = hashlib.sha256()
        for key, out in self.outputs:
            h.update(f"{key}={out}\n".encode())
        return h.hexdigest()


def check_decomposition(d, Z: int, reference, table):
    """Exact re-sum of d against Z, and ell <= bound.

    Indices covered by ``reference`` (values the benchmark computed itself)
    are looked up there, other indices in the table directly, and only
    indices beyond the table through ``value_at``.
    """
    if d is None:
        return "no decomposition", None
    total = 0
    for n, m in d.terms:
        if n < 1 or m < 1:
            return f"malformed term ({n}, {m})", d.terms
        if n <= len(reference):
            v = reference[n - 1]
        elif n <= table.n_max:
            v = table.a(n)
        else:
            v = table.value_at(n)
        total += m * v
    if d.Z != Z or total != Z:
        return f"re-sums to {total} (recorded Z={d.Z})", d.terms
    if d.ell > d.bound:
        return f"ell {d.ell} exceeds bound {d.bound}", d.terms
    return None, d.terms


class Workload:
    setup_is_import = False  # set-up is only the package import (timed in child processes)

    def __init__(self, nb, seed: int, workdir):
        self.nb = nb
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        return None

    def reset(self, state) -> None:
        """Restore state between passes (untimed, untraced)."""

    def layer_facts(self, state) -> dict:
        """Per-layer values the workload knows directly rather than from spans."""
        return {}

    def info(self) -> dict:
        """Informational results of the last pass (not gated)."""
        return {}


class EtaDelta(Workload):
    """Weight-12 table by eta expansion, cached, re-read, rebuilt and checked."""

    name = "eta-delta"
    N = 70_000  # 4 n^6 > 2^98, so three CRT moduli, like the 10^6 test fixture
    REF_N = 1000
    ops_per_pass = 1
    setup_is_import = True

    def __init__(self, *args):
        super().__init__(*args)
        self.path = self.workdir / f"eta-delta-{self.seed}.txt"
        self.reference = naive_eta(((1, 24),), self.REF_N)
        if tuple(self.reference[:10]) != TAU_1_10:
            raise RuntimeError("naive expansion disagrees with the known tau values")
        self.inputs = {"form": "delta", "n_max": self.N}

    def _table(self):
        nb = self.nb
        table = nb.expand_eta_product(nb.DELTA, self.N)
        nb.save_prime_table(table, self.path)
        desc, coeffs, pmax = nb.load_newform(self.path)
        rebuilt = nb.hecke_extend(desc, coeffs, pmax)
        report = nb.check_identities(table)
        return table, desc, coeffs, pmax, rebuilt, report

    def _check(self, result):
        # Streams over n, so that the check adds no table-sized lists to the
        # process's peak memory.
        table, desc, coeffs, pmax, rebuilt, report = result
        if (desc.weight, desc.level, pmax) != (12, 1, self.N):
            return f"cache header reads {(desc.weight, desc.level, pmax)}", None
        primes = 0
        for p in table.primes():
            primes += 1
            if coeffs.get(p) != table.a(p):
                return f"cache round trip changed a({p})", None
        if len(coeffs) != primes:
            return f"cache holds {len(coeffs)} primes, the table {primes}", None
        h = hashlib.sha256()
        for n in range(1, self.N + 1):
            v = table.a(n)
            if n <= self.REF_N and v != self.reference[n - 1]:
                return f"a({n}) disagrees with the naive expansion", None
            if rebuilt.a(n) != v:
                return f"hecke_extend rebuild differs from the eta table at a({n})", None
            h.update(b"%d," % v)
        if not report.ok:
            return f"check_identities: {report.summary()}", None
        return None, h.hexdigest()

    def run_pass(self, state, p: Pass) -> None:
        p.check(f"n_max={self.N}", self._check, p.call("bench.eta.table", self._table))

    def layer_facts(self, state) -> dict:
        return {
            "coefficients.crt_moduli": crt_moduli(self.N, self.nb.DELTA.k),
            "coefficients.cache_bytes": self.path.stat().st_size,
        }


class Constructive11a(Workload):
    """Level-11 constructive route on seeded targets, then the same targets negated."""

    name = "constructive-11a"
    N = 1_000_000
    TARGETS = 60
    Z_RANGE = (10**5, 3 * 10**6)  # inside the feasible range of a 10^6 table
    REF_N = 2000

    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        base = [rng.randint(*self.Z_RANGE) * rng.choice((1, -1)) for _ in range(self.TARGETS)]
        self.targets = base + [-z for z in base]
        self.ops_per_pass = len(self.targets)
        self.reference = naive_eta(((1, 2), (11, 2)), self.REF_N)
        self.inputs = {"form": "11a", "n_max": self.N, "targets": self.targets}
        self.last: list = []

    def setup(self):
        table = self.nb.expand_eta_product(self.nb.FORM_11A, self.N)
        return {"table": table, "pipeline": self.nb.ConstructivePipeline(table)}

    def run_pass(self, state, p: Pass) -> None:
        table, pipeline = state["table"], state["pipeline"]
        self.last = []
        for Z in self.targets:
            d = p.call("bench.constructive", pipeline.decompose, Z)
            p.check(Z, check_decomposition, d, Z, self.reference, table)
            self.last.append(d)

    def reset(self, state) -> None:
        # a fresh pipeline, so that every pass starts with an empty expansion cache
        state["pipeline"] = self.nb.ConstructivePipeline(state["table"])

    def _done(self):
        return [d for d in self.last if isinstance(d, self.nb.Decomposition)]

    def layer_facts(self, state) -> dict:
        pipeline = state["pipeline"]
        return {
            "coefficients.crt_moduli": crt_moduli(self.N, self.nb.FORM_11A.k),
            "admissible.S_size": len(pipeline.S.primes),
            "admissible.pool_size": len(pipeline.pool),
            "decomposer.constructive.shifts_mean": statistics.fmean(d.shifts for d in self._done()),
        }

    def info(self) -> dict:
        return {"mean_ell": statistics.fmean(d.ell for d in self._done())}


class SearchDelta(Workload):
    """Weight-12 search route: the small-target window plus seeded large targets."""

    name = "search-delta"
    N = 1000
    # Every |Z| <= WINDOW.  A seeded sample of |Z| <= 100 would not be
    # steady: about a third of those targets cost 0.3-2.5 s and the rest
    # about 1 ms, so a 40-target sample's total moves ~30% from seed to seed.
    WINDOW = 25
    # Large targets: sums of m values among a(1..LARGE_POOL), this many per m.
    # Three 6-sums put eleven operations above 0.3 s, so op_tail_ms (p80 of
    # 58) lands on a fixed small target rather than on a seeded 5-sum, and
    # make the 3+3 meet, with its memory peak, certain to run.
    LARGE_M = {2: 1, 3: 1, 4: 1, 5: 1, 6: 3}
    LARGE_POOL = 300
    WARM_Z = 100  # misses every meet depth, so the cold call builds all caches

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = naive_eta(((1, 24),), self.N)
        rng = random.Random(self.seed)
        large = []
        for m, count in self.LARGE_M.items():
            for _ in range(count):
                picks = [rng.randint(1, self.LARGE_POOL) for _ in range(m)]
                large.append(("large", sum(self.reference[i - 1] for i in picks)))
        # A fixed order: after a costly target the next cheap one runs slower,
        # so a seeded order moved op_p50_ms by ~15% from seed to seed.
        self.ops = [("small", z) for z in range(-self.WINDOW, self.WINDOW + 1)] + large
        self.ops_per_pass = len(self.ops)
        self.inputs = {"form": "delta", "n_max": self.N, "targets": self.ops}
        self.warmups: list[float] = []
        self.last: list = []

    def setup(self):
        nb = self.nb
        table = nb.expand_eta_product(nb.DELTA, self.N)
        searcher = nb.SearchDecomposer(table)
        times = []
        for _ in ("cold", "warm"):
            t0 = time.perf_counter()
            d = searcher.decompose(self.WARM_Z)
            times.append(time.perf_counter() - t0)
            problem, _ = check_decomposition(d, self.WARM_Z, self.reference, table)
            if problem:
                raise RuntimeError(f"warm-up decomposition of {self.WARM_Z}: {problem}")
        self.warmups.append(times[0] - times[1])
        return {"table": table, "searcher": searcher}

    def run_pass(self, state, p: Pass) -> None:
        table, searcher = state["table"], state["searcher"]
        self.last = []
        for kind, Z in self.ops:
            d = p.call(f"bench.search.{kind}", searcher.decompose, Z)
            p.check(Z, check_decomposition, d, Z, self.reference, table)
            self.last.append((kind, d))

    def _done(self):
        return [(k, d) for k, d in self.last if isinstance(d, self.nb.Decomposition)]

    def layer_facts(self, state) -> dict:
        depth = self.nb.SearchDecomposer.MAX_MEET_DEPTH
        done = self._done()
        return {
            "coefficients.crt_moduli": crt_moduli(self.N, self.nb.DELTA.k),
            "decomposer.SearchDecomposer.warmup_s": statistics.median(self.warmups),
            "decomposer.search.fallback_frac": sum(d.ell > depth for _, d in done) / len(done),
        }

    def info(self) -> dict:
        small = [d for k, d in self._done() if k == "small"]
        return {
            "mean_ell": statistics.fmean(d.ell for _, d in self._done()),
            # acceptance criterion 13 asks ell <= 6 for every |Z| <= 100 (known red)
            "small_targets_ell_le_6": f"{sum(d.ell <= 6 for d in small)} of {2 * self.WINDOW + 1}",
        }


class WgMixed(Workload):
    """Prime-power counts, singular series and ternary Goldbach solves."""

    name = "wg-mixed"
    HEIGHTS = (10**5, 3 * 10**5, 10**6)  # acceptance criterion 10: (s, e) = (8, 3)
    Q_MAX = 1000
    SOLVES = 100
    SOLVE_MAX = 10**6
    setup_is_import = True

    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        self.z21 = 10**5 + 2 * rng.randint(0, 5000)
        # One odd Z from each of SOLVES equal strata of [9, SOLVE_MAX]: a solve
        # costs about in proportion to Z (a sieve to Z per call), so plain
        # uniform draws would move the median solve time with the seed.
        lo, hi = 4, (self.SOLVE_MAX - 1) // 2
        step = (hi - lo + 1) / self.SOLVES
        self.solves = [2 * rng.randint(lo + int(i * step), lo + int((i + 1) * step) - 1) + 1
                       for i in range(self.SOLVES)]
        self.ops_per_pass = self.SOLVES  # op_p50_ms and op_tail_ms cover the solves only
        self.is_prime = prime_sieve(max(self.SOLVE_MAX, self.z21))
        self.inputs = {"heights": self.HEIGHTS, "count_2_1": self.z21, "solve_3_1": self.solves}
        self.ratios: dict = {}

    def _criterion10(self, Z):
        nb = self.nb
        count = nb.count_representations(Z, 8, 3)
        ss = nb.singular_series(Z, 8, 3, self.Q_MAX)
        return count, ss.value, nb.hua_main_term(Z, 8, 3, ss)

    def _check10(self, result, Z):
        count, series, main = result
        self.ratios[Z] = count / main if main else math.inf
        if count != CRITERION10_COUNTS[Z]:
            return f"count {count}, expected {CRITERION10_COUNTS[Z]}", count
        if not (math.isfinite(series) and series > 0 and math.isfinite(main) and main > 0):
            return f"series {series} or main term {main} not finite and positive", count
        return None, (count, series, main)

    def _check21(self, count, Z):
        flags = self.is_prime[: Z + 1]
        expected = int(np.count_nonzero(flags[1:Z] & flags[Z - 1:0:-1]))
        return (None if count == expected else f"count {count}, sieve gives {expected}"), count

    def _check_solve(self, sol, Z):
        if sol is None:
            return "no solution", None
        ps = tuple(sol.primes)
        if len(ps) != 3 or sum(ps) != Z or not all(self.is_prime[p] for p in ps):
            return f"invalid solution {ps}", ps
        return None, ps

    def run_pass(self, state, p: Pass) -> None:
        nb = self.nb
        for Z in self.HEIGHTS:
            p.check(("8,3", Z), self._check10, p.call("bench.wg.criterion10", self._criterion10, Z, op=False), Z)
        count = p.call("bench.wg.count", nb.count_representations, self.z21, 2, 1, op=False)
        p.check(("2,1", self.z21), self._check21, count, self.z21)
        for Z in self.solves:
            p.check(("3,1", Z), self._check_solve, p.call("bench.wg.solve", nb.find_solution, Z, 3, 1), Z)

    def info(self) -> dict:
        # acceptance criterion 10 asks every ratio to lie in (0.3, 3.0) (known red)
        return {"criterion10_count_over_main_term": {str(z): r for z, r in self.ratios.items()}}


WORKLOADS = {w.name: w for w in (EtaDelta, Constructive11a, SearchDelta, WgMixed)}
