import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newform_basis import (
    DELTA,
    FORM_11A,
    CoeffTable,
    ConstructivePipeline,
    Decomposition,
    InfeasibleError,
    SearchDecomposer,
    VerificationError,
    cf_bound,
    expand_eta_product,
    greedy_maximal,
    hua_constants,
    prime_power_expand,
    prime_sets,
    verify_decomposition,
)
from newform_basis import decomposer
from newform_basis.decomposer import ROUTE_SEARCH


class TestCfBound:
    def test_11a(self, f11a_1k):
        cf = cf_bound(f11a_1k)
        assert (cf.C0, cf.k, cf.s0) == (2, 1, 2)
        assert cf.value == 13
        # independent re-evaluation straight from the formula
        assert cf.value == -f11a_1k.a(2) * (1 * 2 + 3) + 1 * 2 + 1

    def test_delta(self, delta_1k):
        cf = cf_bound(delta_1k)
        s0 = hua_constants(11).s0
        assert (cf.C0, cf.k, cf.s0) == (24, 6, s0)
        assert cf.value == 24 * (6 * s0 + 3) + 6 * s0 + 1

    def test_formula_instantiation(self):
        # a(n_f) = -1, k*s0 = 1 gives 1*4 + 2 = 6
        assert -(-1) * (1 + 3) + 1 + 1 == 6


class TestPrimePowerExpansion:
    def test_11a_shape_and_exactness(self, f11a_1k):
        candidates, _ = prime_sets(f11a_1k, 1000)
        S = greedy_maximal(candidates, 1, f11a_1k)
        members = set(S.primes)
        for p in [q for q in candidates if q not in members][:10]:
            exp = prime_power_expand(p, S, f11a_1k)
            assert len(exp.plus) == 1 and exp.minus == (p * p,)
            assert exp.value == p  # weight 2: p^(2k-1) = p
            total = sum(f11a_1k.value_at(i) for i in exp.plus)
            total -= sum(f11a_1k.value_at(i) for i in exp.minus)
            assert total == p

    def test_delta_k2_style(self, delta_1k):
        # the identity also holds for synthetic small-k runs on other tables
        candidates, _ = prime_sets(delta_1k, 200)
        S = greedy_maximal(candidates, 2, delta_1k)
        members = set(S.primes)
        excl = [q for q in candidates if q not in members]
        if excl:  # witness shape: k + (k-1) primes, plus the square index
            exp = prime_power_expand(excl[0], S, delta_1k)
            assert len(exp.plus) == 2 and len(exp.minus) == 2


class TestVerify:
    def test_pass_and_ratio(self, f11a_1k):
        # a(13) + a(2) + 1 = 4 - 2 + 1 = 3
        d = Decomposition(3, ((1, 1), (2, 1), (13, 1)), ROUTE_SEARCH, 10)
        report = verify_decomposition(d, f11a_1k)
        assert report.ok and report.delta == 0
        assert report.max_index == 13
        assert report.index_ratio == pytest.approx(13 / (3**2 + 1))

    def test_tampered_multiplicity(self, f11a_1k):
        d = Decomposition(3, ((1, 1), (2, 2), (13, 1)), ROUTE_SEARCH, 10)
        report = verify_decomposition(d, f11a_1k)
        assert not report.ok and report.delta == -2

    def test_bound_breach_flagged(self, f11a_1k):
        d = Decomposition(1, ((1, 1),), ROUTE_SEARCH, 0)
        report = verify_decomposition(d, f11a_1k)
        assert report.delta == 0 and not report.ok

    def test_malformed_terms(self, f11a_1k):
        with pytest.raises(ValueError):
            verify_decomposition(Decomposition(1, ((0, 1),), ROUTE_SEARCH, 5), f11a_1k)


class TestConstructive:
    @pytest.mark.parametrize("Z", [0, 1, -1, 5, 100, -100, 4321, -4321, 287654, -287654])
    def test_exact_and_bounded(self, pipeline_11a, f11a_big, Z):
        d = pipeline_11a.decompose(Z)
        report = verify_decomposition(d, f11a_big)
        assert report.ok
        assert d.route == "constructive"

    def test_zero_is_empty(self, pipeline_11a):
        assert pipeline_11a.decompose(0).terms == ()

    def test_large_targets_meet_cf_bound(self, pipeline_11a, f11a_big):
        value = cf_bound(f11a_big).value
        for Z in (2 * 10**5, -2 * 10**5 + 1, 10**5 + 17):
            d = pipeline_11a.decompose(Z)
            assert d.shifts == 0
            assert d.ell <= value

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-300000, max_value=300000))
    def test_fuzzed_targets_verify(self, pipeline_11a, f11a_big, Z):
        report = verify_decomposition(pipeline_11a.decompose(Z), f11a_big)
        assert report.ok

    def test_negation_symmetry(self, pipeline_11a, f11a_big):
        for Z in (12345, 299998, 100001):
            d, dn = pipeline_11a.decompose(Z), pipeline_11a.decompose(-Z)
            assert d.bound == dn.bound
            assert verify_decomposition(dn, f11a_big).ok

    def test_fresh_pipeline_on_the_100k_table(self, table_100k):
        d = ConstructivePipeline(table_100k).decompose(8777)
        assert verify_decomposition(d, table_100k).ok

    def test_delta_desk_scale_raises_cleanly(self, delta_1k):
        # candidate pools large enough for k = 6 blow the subset-sum budget;
        # the documented outcome is a clean infeasibility/memory error
        from newform_basis import NewformBasisError

        with pytest.raises(NewformBasisError):
            ConstructivePipeline(delta_1k).decompose(10**9)


@pytest.fixture(scope="module")
def table_100k():
    from newform_basis import FORM_11A, expand_eta_product

    return expand_eta_product(FORM_11A, 10**5)


@pytest.fixture(scope="module")
def pipe_100k(table_100k):
    return ConstructivePipeline(table_100k)


class TestConstructiveSmallTable:
    """Shift-path specifics on a deliberately small table."""

    @pytest.fixture
    def table(self, table_100k):
        return table_100k

    @pytest.fixture
    def pipe(self, pipe_100k):
        return pipe_100k

    def test_shift_path_counts_and_verifies(self, pipe, table):
        for Z in (3, -3, 1, 100):
            d = pipe.decompose(Z)
            assert d.shifts >= 1
            assert d.ell <= d.bound
            assert verify_decomposition(d, table).ok

    def test_shift_retry_recovers_sparse_pool_band(self, pipe, table):
        # Z = 328 targets W = 164, an even value with no two-term solution
        # over this table's candidate pool; the retry shift must recover it
        d = pipe.decompose(328)
        assert verify_decomposition(d, table).ok

    def test_a_miss_solves_each_pool_once(self, monkeypatch, table, f11a_1k):
        # k = 1: partner caps 10^4 and 8*10^4 lie below n_max = 10^5, then the
        # full pool; a table inside the first cap solves its full pool alone
        pools = []
        monkeypatch.setattr(decomposer, "find_solution",
                            lambda *args, allowed, **kw: pools.append(allowed))
        for t, solves in ((table, 3), (f11a_1k, 1)):
            pipe = ConstructivePipeline(t)
            pools.clear()
            with pytest.raises(InfeasibleError):
                pipe._expand_target(1000)
            sizes = [len(pool.primes) for pool in pools]
            assert len(sizes) == solves and sizes == sorted(sizes)
            assert sizes[-1] == len(pipe.pool)

    def test_solves_share_the_prepared_pools(self, monkeypatch, table):
        # every target receives the pools built in __init__, not per-call copies;
        # for e = 1 the full pool's primes and powers are the pipeline's pool itself
        pools = []
        monkeypatch.setattr(decomposer, "find_solution",
                            lambda *args, allowed, **kw: pools.append(allowed))
        pipe = ConstructivePipeline(table)
        for W in (1000, 2002):
            with pytest.raises(InfeasibleError):
                pipe._expand_target(W)
        first, second = pools[:3], pools[3:]
        assert len(second) == 3 and all(a is b for a, b in zip(first, second))
        assert first[-1].primes is pipe.pool and first[-1].powers is pipe.pool

    def test_s_override_recorded(self, table):
        pipe = ConstructivePipeline(table, s=4)
        d = pipe.decompose(54321)
        assert d.s_used == 4
        assert d.bound >= (2 + 1) * 1 * 4 + 3 * 2 + 1
        assert verify_decomposition(d, table).ok


class TestSearch:
    def test_unit_value(self, delta_searcher):
        d = delta_searcher.decompose(1)
        assert d.terms == ((1, 1),) and d.ell == 1

    def test_zero(self, delta_searcher):
        assert delta_searcher.decompose(0).terms == ()

    def test_single_lookup_semantics(self, delta_searcher, delta_1k):
        # ell_max = 1 finds Z iff Z is a table value
        assert delta_searcher.decompose(252, ell_max=1).terms == ((3, 1),)
        assert delta_searcher.decompose(251, ell_max=1) is None

    def test_verified_small_band(self, delta_searcher, delta_1k):
        for Z in (-37, -1, 7, 99, 229):
            d = delta_searcher.decompose(Z)
            assert d is not None
            assert verify_decomposition(d, delta_1k).delta == 0
            assert d.ell <= d.bound

    def test_deterministic(self, delta_searcher):
        a = delta_searcher.decompose(229)
        b = delta_searcher.decompose(229)
        assert a == b

    def test_single_value_hit_is_verified(self, delta_1k):
        # a wrong index from the value lookup must not leave the route unverified
        sd = SearchDecomposer(delta_1k.truncate(50))
        sd._value_first_index[252] = 4  # a(4) = -1472, not 252
        with pytest.raises(VerificationError):
            sd.decompose(252)

    @pytest.mark.parametrize("form", ["delta", "11a"])
    def test_lexmin_matches_brute_force(self, delta_1k, f11a_1k, form):
        # 11a repeats values often, so many index tuples share one sum
        table = delta_1k if form == "delta" else f11a_1k
        sd = SearchDecomposer(table.truncate(12))
        for K in range(1, 13):
            for h in range(1, 5):
                lexmin: dict[int, tuple[int, ...]] = {}
                for t in combinations_with_replacement(range(1, K + 1), h):
                    lexmin.setdefault(sum(table.a(i) for i in t), t)  # emitted in lex order
                for s, t in lexmin.items():
                    assert sd._lexmin(s, h, K) == t

    @pytest.mark.parametrize("form", ["delta", "11a"])
    def test_lexmin_past_the_first_search_chunk(self, delta_1k, f11a_1k, form):
        # _first searches indices 1-16, 17-48, 49-112, ...: sums whose smallest
        # index sits on either side of a chunk edge, or at the pool's end
        table = delta_1k if form == "delta" else f11a_1k
        K = 64
        sd = SearchDecomposer(table.truncate(K))
        edges = {1, 16, 17, 48, 49, K}
        for h in (2, 3):
            lexmin: dict[int, tuple[int, ...]] = {}
            for t in combinations_with_replacement(range(1, K + 1), h):
                lexmin.setdefault(sum(table.a(i) for i in t), t)  # emitted in lex order
            checked = {t[0] for t in lexmin.values() if t[0] in edges}
            # 11a repeats values: a(17), a(48) and a(64) each equal an earlier
            # value, so no sum has its smallest index there
            assert checked == (edges if form == "delta" else {1, 16, 49}), (h, checked)
            for s, t in lexmin.items():
                if t[0] in edges:
                    assert sd._lexmin(s, h, K) == t, (s, h)
        # a total with no split is refused after the last chunk, not searched forever
        with pytest.raises(ValueError, match="not a\\(i\\) plus a sum of 2 values over 1..64"):
            sd._first(1 + 3 * max(abs(table.a(i)) for i in range(1, K + 1)), 2, K, 0)

    def test_11a_small_band_finishes(self):
        # 11a's small values repeat often: the 2+2 band finishes only because
        # it loops over distinct half-sums, not over every pair of 2-sums
        table = expand_eta_product(FORM_11A, 500)
        d = SearchDecomposer(table).decompose(-127)
        assert d.ell == 4 and verify_decomposition(d, table).ok

    def test_baseline_fallback_works(self, monkeypatch, delta_1k):
        # a searcher with no meet tables still produces the padding fallback
        monkeypatch.setattr(SearchDecomposer, "HALF_SUM_BUDGET", 1)
        sd = SearchDecomposer(delta_1k)
        d = sd.decompose(-97)
        assert d is not None
        assert verify_decomposition(d, delta_1k).delta == 0

    def test_truncated_table_bounds_the_indices(self, delta_1k):
        d = SearchDecomposer(delta_1k.truncate(50)).decompose(229)
        assert d is not None
        assert verify_decomposition(d, delta_1k).delta == 0
        assert max(n for n, _ in d.terms) <= 50

    def test_baseline_without_negative_coefficients(self):
        # a(1) = 1 pads any Z > 0; a negative Z has nothing to pad with
        sd = SearchDecomposer(expand_eta_product(DELTA, 1))
        assert sd.decompose(9, 20).terms == ((1, 9),)
        assert sd.decompose(-1, 20) is None

    @pytest.mark.parametrize("Z", [0, 5, -5])
    def test_negative_term_bound_is_a_usage_error(self, delta_searcher, Z):
        # refused before any search: not a failed re-sum, not "nothing found"
        with pytest.raises(ValueError, match="ell_max must be >= 0, got -1"):
            delta_searcher.decompose(Z, -1)


def _first_half(sd: SearchDecomposer, Z: int, h1: int, h2: int) -> list[int]:
    """The rows _meet walks for Z, by definition: every value, or the window of
    h1-sums, and in a self-join (h1 = h2 >= 2) only its rows s1 <= Z // 2."""
    sums2 = sd._half_table(h2).tolist()
    rows = sd.values.tolist() if h1 == 1 else sd._half_table(h1).tolist()
    rows = [s for s in rows if sums2[0] <= Z - s <= sums2[-1]]
    return [s for s in rows if s <= Z // 2] if h1 == h2 >= 2 else rows


def _hit_rows(sd: SearchDecomposer, Z: int, h1: int, h2: int) -> list[int]:
    """Positions in _first_half of the first CANDIDATE_CAP rows s1 with Z - s1 an h2-sum."""
    sums2 = set(sd._half_table(h2).tolist())
    firsts = _first_half(sd, Z, h1, h2)
    return [j for j, s1 in enumerate(firsts) if Z - s1 in sums2][:decomposer.CANDIDATE_CAP]


def _brute_meet(sd: SearchDecomposer, Z: int, h1: int, h2: int) -> list[tuple[int, int]]:
    firsts = _first_half(sd, Z, h1, h2)
    return [(firsts[j], Z - firsts[j]) for j in _hit_rows(sd, Z, h1, h2)]


def _all_rows_self_meet(sd: SearchDecomposer, Z: int, h: int) -> list[tuple[int, int]]:
    """The first CANDIDATE_CAP splits of Z over every row of the h-sums, upper half included."""
    sums = sd._half_table(h)
    rows = sums[(sums >= Z - int(sums[-1])) & (sums <= Z - int(sums[0]))]
    comps = Z - rows
    hit = sums.take(np.searchsorted(sums, comps), mode="clip") == comps
    return [(s1, Z - s1) for s1 in rows[hit][:decomposer.CANDIDATE_CAP].tolist()]


def _band_rows(sd: SearchDecomposer, h1: int, h2: int, all_rows: bool = False) -> list[int]:
    """The rows _band_pairs walks, by definition: every value in index order at
    h1 = 1, else the h1-sums, each with a window reaching the h2-sums, and in a
    self-join only its rows s1 <= BAND_LIMIT // 2 unless all_rows."""
    band = decomposer.BAND_LIMIT
    sums2 = sd._half_table(h2).tolist()
    rows = sd.values.tolist() if h1 == 1 else sd._half_table(h1).tolist()
    rows = [s for s in rows if -band - sums2[-1] <= s <= band - sums2[0]]
    if h1 == h2 >= 2 and not all_rows:
        rows = [s for s in rows if s <= band // 2]
    return rows


def _brute_band(sd: SearchDecomposer, h1: int, h2: int,
                all_rows: bool = False) -> dict[int, list[tuple[int, int]]]:
    """The band by definition: the first CANDIDATE_CAP splits of each total in row order."""
    sums2 = set(sd._half_table(h2).tolist())
    band: dict[int, list[tuple[int, int]]] = {}
    for s1 in _band_rows(sd, h1, h2, all_rows):
        for total in range(-decomposer.BAND_LIMIT, decomposer.BAND_LIMIT + 1):  # s2 ascending
            if total - s1 in sums2:
                bucket = band.setdefault(total, [])
                if len(bucket) < decomposer.CANDIDATE_CAP:
                    bucket.append((s1, total - s1))
    return band


def _unordered(pairs) -> set[tuple[int, int]]:
    """The splits as unordered pairs: _search ranks (s1, s2) and (s2, s1) alike at h1 = h2."""
    return {tuple(sorted(pair)) for pair in pairs}


class TestSearchTables:
    """Half-sum tables by first-index suffixes, and the chunked probe of the meet and band join."""

    HALVES = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    MEET_TARGETS = (*range(-2000, -128, 61), *range(129, 1800, 7), 418, 820)
    # for j <= 16, j + 1 of the 2j + 1 two-sum splits of ±(1200 + 2j) on the
    # mirrored table lie in the lower half
    MIRROR_TARGETS = tuple(Z for j in (14, 15, 16, 30)
                           for Z in (1200 + 2 * j, 1201 + 2 * j, -1200 - 2 * j, -1201 - 2 * j))
    # 6-sum targets on the weight-12 table to 1000, by their indices
    SIX_SUMS = ((17, 58, 133, 201, 256, 300), (15, 164, 187, 195, 217, 239))

    @pytest.mark.parametrize("seed", range(4))
    def test_multiset_sums_match_combinations(self, seed):
        # negative and repeated values; K = 0 is the empty pool
        rng = np.random.default_rng(seed)
        for K in range(13):
            vals = rng.integers(-6, 7, size=K).astype(np.int64)
            for h in range(1, 5):
                expected = sorted(sum(t) for t in combinations_with_replacement(vals.tolist(), h))
                assert sorted(decomposer._multiset_sums(vals, h).tolist()) == expected

    def test_table_builds_leave_the_values_unchanged(self, delta_1k):
        # _sums sorts in place; the h = 1 table must be a copy, not a view of _ints
        values = delta_1k._values.copy()
        sd = SearchDecomposer(delta_1k)
        ints = sd._ints.copy()
        for h in range(1, SearchDecomposer.MAX_MEET_DEPTH // 2 + 1):
            for r in range(1, h + 1):
                assert np.all(np.diff(sd._sums(r, sd._pool(h))) > 0)
        assert np.array_equal(sd._ints, ints)
        assert np.array_equal(delta_1k._values, values)

    def test_values_are_python_ints_by_index(self, delta_1k, f11a_1k):
        # int64 storage (delta to 1000), repeated values (11a), exact-int storage (delta to 1300)
        for table in (delta_1k, f11a_1k, expand_eta_product(DELTA, 1300)):
            # the searcher reads the table's own array, not a copy of it
            sd = SearchDecomposer(table)
            assert sd.values is table._values
            first: dict[int, int] = {}
            for n in range(1, table.n_max + 1):
                first.setdefault(table.a(n), n)
            assert sd._value_first_index == first
            assert all(type(v) is int for v in sd._value_first_index)

    def test_sums_dedup_in_place(self, delta_1k):
        # The 3-sums over K = 329 are 6·10^6 int64 (48 MB) with 375 repeats;
        # a copy of the distinct sums made beside the sorted table held two
        # table-sized arrays at once (2.1 times the result).
        sd = SearchDecomposer(delta_1k)
        tracemalloc.start()
        try:
            sums = sd._sums(3, sd._pool(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.diff(sums) > 0)
        assert peak < 1.5 * sums.nbytes

    def test_targets_past_2_61(self, delta_searcher):
        # On the weight-12 table to 3000 (exact-int storage) every h-sum lies
        # within 2^61 of zero, so a target between 2^61 and 2^62 still meets:
        # 2a(1667) + 2a(1669) is a 2 + 2 split
        table = expand_eta_product(DELTA, 3000)
        sd = SearchDecomposer(table)
        Z = 2 * table.a(1667) + 2 * table.a(1669)
        assert Z == 3_056_607_641_347_163_572 and 1 << 61 < Z < 1 << 62
        assert sd.decompose(Z, 8).terms == ((1667, 2), (1669, 2))
        # targets past int64 leave every first half empty; nothing raises
        for searcher in (delta_searcher, sd):
            for Z in (1 << 63, -(1 << 63), 10**400, -(10**400)):
                assert searcher.decompose(Z) is None

    def test_rows_past_int64_search_nothing(self, delta_searcher):
        # bounds past the h1-sums are cut before any search: a key past int64
        # would copy the 3-sums table (6·10^6 entries) to object
        sd = delta_searcher
        sd._half_table(3)
        tracemalloc.start()
        try:
            for Z in (1 << 63, -(1 << 63), 10**400, -(10**400)):
                assert not len(sd._rows(3, Z - 1, Z + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.fixture(scope="class")
    def progression(self):
        # a run of values puts 20 splits on a target (past CANDIDATE_CAP), 5, 5
        # repeats a value, -1000 sends a band window past the end of sums2, and
        # 125 and -131 put band totals on both edges, 1+1+1+125 and -131+1+1+1
        values = [1] + list(range(200, 219)) + [-1000, 5, 5, -7, 125, -131]
        return CoeffTable(DELTA, len(values), values)

    @pytest.fixture
    def small_searcher(self, monkeypatch, progression):
        # tables of at most 400 entries keep the brute-force double loops short
        monkeypatch.setattr(SearchDecomposer, "HALF_SUM_BUDGET", 400)
        return SearchDecomposer(progression)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_meet_matches_brute_force(self, monkeypatch, small_searcher, chunk):
        sd = small_searcher
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        cap = decomposer.CANDIDATE_CAP
        last_row_hit = cap_mid_chunk = False
        for h1, h2 in self.HALVES:
            for Z in self.MEET_TARGETS:
                if h1 == 1 or abs(Z) > decomposer.BAND_LIMIT:
                    pairs = sd._meet(Z, h1, h2)
                    assert pairs == _brute_meet(sd, Z, h1, h2), (Z, h1, h2)
                    rows = _hit_rows(sd, Z, h1, h2)
                    last_row_hit |= any(j % chunk == chunk - 1 for j in rows)
                    if len(pairs) == cap:
                        j = rows[-1]  # the probe stops in this row's chunk
                        more = j + 1 < len(_first_half(sd, Z, h1, h2))
                        cap_mid_chunk |= j % chunk < chunk - 1 and more
        # the exact-int path also serves small targets
        for h2 in range(1, 5):
            for Z in range(-40, 41):
                assert sd._meet(Z, 1, h2) == _brute_meet(sd, Z, 1, h2), (Z, h2)
        assert last_row_hit
        assert cap_mid_chunk or chunk == 1  # a chunk of one row has no middle

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_band_pairs_match_brute_force(self, monkeypatch, small_searcher, chunk):
        sd = small_searcher
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        band = decomposer.BAND_LIMIT
        last_row_hit = rows_cut = False
        totals: set[int] = set()
        for h1, h2 in self.HALVES:
            pairs = sd._band_pairs(h1, h2)
            assert pairs == _brute_band(sd, h1, h2), (h1, h2)
            totals |= pairs.keys()
            if h1 == 1:  # unsorted rows
                continue
            sums1, sums2 = sd._half_table(h1).tolist(), sd._half_table(h2).tolist()
            rows = [j for j, s1 in enumerate(_band_rows(sd, h1, h2))
                    if any(abs(s1 + s2) <= band for s2 in sums2)]
            last_row_hit |= any(j % chunk == chunk - 1 for j in rows)
            # _rows drops every row whose band window misses the h2-sums
            walked = sd._rows(h1, -band - sums2[-1], band - sums2[0])
            assert walked.tolist() == _band_rows(sd, h1, h2, all_rows=True), (h1, h2)
            rows_cut |= len(walked) < len(sums1)
        assert last_row_hit and rows_cut and {-band, band} <= totals
        # the repeated value 5 puts one split on a total twice, as the meet does
        assert sd._band_pairs(1, 1)[10] == [(5, 5), (5, 5)]

    @pytest.mark.parametrize("n_max", [1300, 3000])
    def test_band_pairs_at_h1_1_on_exact_int_storage(self, n_max):
        # the weight-12 tables to 1300 and 3000 hold their values as Python
        # ints, some of those to 3000 past int64; the band's rows are cut to
        # those whose window reaches sums2, which fit int64
        sd = SearchDecomposer(expand_eta_product(DELTA, n_max))
        assert sd.values.dtype == object
        assert (max(abs(v) for v in sd.values.tolist()) >= 1 << 63) == (n_max == 3000)
        for h2 in (1, 2):
            pairs = sd._band_pairs(1, h2)
            assert pairs and pairs == _brute_band(sd, 1, h2), h2

    @pytest.mark.parametrize("values, stop", [
        # every total in the band has CANDIDATE_CAP 1 + 1 splits by row 143
        # (s1 = -8), where the group of 128, the last to fill, takes its 16th
        ([1, *range(-150, 151)], 143),
        # only the totals 17..65 fill, so the walk reads every row
        (list(range(1, 41)), 39),
    ])
    def test_band_walk_stops_once_every_group_is_full(self, monkeypatch, values, stop):
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", 1)
        sd = SearchDecomposer(CoeffTable(DELTA, len(values), values))
        probe, chunks = decomposer._probe, []

        def counting_probe(*args):
            for chunk in probe(*args):
                chunks.append(chunk)
                yield chunk

        monkeypatch.setattr(decomposer, "_probe", counting_probe)
        assert sd._band_pairs(1, 1) == _brute_band(sd, 1, 1)
        assert len(chunks) == stop + 1  # a chunk of one row each, through row `stop`

    def test_small_targets_read_the_cached_band(self, monkeypatch, delta_searcher, delta_1k):
        # decompose(100) misses at every depth, so it joins every band; after
        # it no small target probes at any depth, h1 = 1 included
        sd = delta_searcher
        sd.decompose(100)
        probes = []
        probe = decomposer._probe

        def counting_probe(*args):
            probes.append(args[2])
            return probe(*args)

        monkeypatch.setattr(decomposer, "_probe", counting_probe)
        band = decomposer.BAND_LIMIT
        for Z in range(-band, band + 1):
            assert verify_decomposition(sd.decompose(Z), delta_1k).ok
        assert probes == []
        sd.decompose(band + 1)  # a large target still meets by probe
        assert probes

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_probe_yields_the_rows_whose_window_meets(self, monkeypatch, chunk):
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        sums2 = np.array([-9, -4, 0, 3, 10], dtype=np.int64)
        firsts = np.array([-30, -12, -5, -1, 0, 2, 7, 13, 25], dtype=np.int64)
        for Z in range(-20, 21):
            for width in (0, 1, 3):
                chunks = list(decomposer._probe(firsts, sums2, Z, width))
                assert len(chunks) == -(-len(firsts) // chunk)
                got = [row for s1, lo in chunks for row in zip(s1.tolist(), lo.tolist())]
                expected = []
                for s1 in firsts.tolist():
                    inside = [j for j, s2 in enumerate(sums2.tolist())
                              if Z - width - s1 <= s2 <= Z + width - s1]
                    if inside:
                        expected.append((s1, inside[0]))
                assert got == expected, (Z, width)
        # s1 = -30 at Z = 0 puts the low end past sums2[-1]: its search returns len(sums2)
        assert not list(decomposer._probe(firsts[:1], sums2, 0, 3))[0][0].size
        assert list(decomposer._probe(firsts, sums2[:0], 0, 3)) == []

    @pytest.fixture(scope="class")
    def mirrored(self):
        # 300..316 and their negatives put 2j + 1 two-sum splits on Z = ±(1200 + 2j)
        # for j <= 16, j + 1 of them in the lower half s1 <= Z // 2; 32 + 32 and
        # 32 + 33 are 2-sums at s1 = BAND_LIMIT // 2 and one past it
        values = [1, *range(300, 317), *range(-316, -299), 32, 33]
        return CoeffTable(DELTA, len(values), values)

    @pytest.fixture
    def mirror_searcher(self, monkeypatch, mirrored):
        # every value is in the 2-sum pool, whose table holds about 700 entries
        monkeypatch.setattr(SearchDecomposer, "HALF_SUM_BUDGET", 1000)
        return SearchDecomposer(mirrored)

    @staticmethod
    def _counting_merge(monkeypatch):
        """Record the rows of each merge piece: the keys Z - s1 the self-join writes to its buffer."""
        rows = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def subtract(x, piece, **kwargs):
                rows.append(len(piece))
                return np.subtract(x, piece, **kwargs)

        monkeypatch.setattr(decomposer, "np", CountingNumpy())
        return rows

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_self_join_mirror_edges(self, monkeypatch, mirror_searcher, chunk):
        # lower halves of CANDIDATE_CAP - 1, CANDIDATE_CAP and CANDIDATE_CAP + 1
        # splits: a self-join returns the first CANDIDATE_CAP of them and no mirror
        sd = mirror_searcher
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        cap = decomposer.CANDIDATE_CAP
        sums2 = set(sd._half_table(2).tolist())
        lower_halves, diagonals = set(), set()
        for Z in self.MIRROR_TARGETS:
            pairs = sd._meet(Z, 2, 2)
            assert pairs == _brute_meet(sd, Z, 2, 2), Z
            lower_halves.add(sum(Z - s1 in sums2 for s1 in _first_half(sd, Z, 2, 2)))
            if Z % 2 == 0 and (Z // 2, Z // 2) in pairs:
                assert pairs.count((Z // 2, Z // 2)) == 1  # the diagonal split, once
                diagonals.add(Z)
        assert {cap - 1, cap, cap + 1} <= lower_halves
        assert {1228, 1230, -1228, -1230} <= diagonals  # 15th and 16th of the splits
        band = sd._band_pairs(2, 2)
        assert band == _brute_band(sd, 2, 2)
        # the band's rows stop at BAND_LIMIT // 2, though 33 + 32 has splits in it
        assert max(s1 for group in band.values() for s1, _ in group) == decomposer.BAND_LIMIT // 2
        assert _brute_band(sd, 2, 2, all_rows=True) != band

    @pytest.mark.parametrize("searcher", ["small_searcher", "mirror_searcher", "delta_searcher"])
    def test_self_joins_find_the_all_rows_splits(self, request, delta_1k, searcher):
        # A total's splits pair up as (s1, s2) and (s2, s1), so the first
        # CANDIDATE_CAP of the lower rows, as unordered pairs, are those of the
        # first CANDIDATE_CAP rows of all: the lower half holds the first
        # ceil(n / 2) of n splits.  _search ranks a split and its mirror alike,
        # so its tie-breaks see the candidates of the all-rows definition.
        sd = request.getfixturevalue(searcher)
        halves = (2, 3, 4)
        if searcher == "delta_searcher":  # its bands are too large for the brute-force band
            meets = [(sum(delta_1k.a(i) for i in indices), 3) for indices in self.SIX_SUMS]
            halves = ()
        else:
            meets = [(Z, h) for h in halves for Z in self.MEET_TARGETS + self.MIRROR_TARGETS]
        differ = 0
        for Z, h in meets:
            pairs, every = sd._meet(Z, h, h), _all_rows_self_meet(sd, Z, h)
            assert _unordered(pairs) == _unordered(every), (Z, h)
            differ += pairs != every
        for h in halves:
            band, every = sd._band_pairs(h, h), _brute_band(sd, h, h, all_rows=True)
            assert band.keys() == every.keys(), h
            for total, group in every.items():
                assert _unordered(band[total]) == _unordered(group), (total, h)
                differ += band[total] != group
        assert differ  # the all-rows definition takes upper rows somewhere

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_probe_on_unsorted_rows_with_repeats(self, monkeypatch, chunk):
        # the h1 = 1 rows: the table's values in index order; each chunk's
        # slice of sums2 then spans the chunk's lowest to highest low end
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        sums2 = np.array([-9, -4, 0, 3, 10], dtype=np.int64)
        firsts = np.array([7, -5, 7, 0, -30, 13, 2, 2, -5, 9], dtype=np.int64)
        for Z in range(-20, 21):
            got = [row for s1, lo in decomposer._probe(firsts, sums2, Z, 0)
                   for row in zip(s1.tolist(), lo.tolist())]
            expected = [(s1, sums2.tolist().index(Z - s1)) for s1 in firsts.tolist()
                        if Z - s1 in sums2.tolist()]
            assert got == expected, Z

    def test_probe_miss_at_the_slice_end(self, monkeypatch):
        # one chunk of rows 4, -2 at Z = 0: low ends -4, 2 give the slice
        # sums2[1:3]; row -2's search ends at b1 = 3 < len(sums2), whose entry
        # 3 lies outside the row's window, so that row is no hit
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", 2)
        sums2 = np.array([-9, -4, 0, 3, 10], dtype=np.int64)
        chunks = list(decomposer._probe(np.array([4, -2], dtype=np.int64), sums2, 0, 0))
        assert [(s1.tolist(), lo.tolist()) for s1, lo in chunks] == [([4], [1])]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_probe_matches_a_whole_array_search(self, monkeypatch, chunk):
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for _ in range(200):
            sums2 = np.unique(rng.integers(-60, 61, size=rng.integers(1, 30)))
            unsorted = rng.integers(-80, 81, size=rng.integers(0, 20))
            Z, width = int(rng.integers(-40, 41)), int(rng.integers(0, 6))
            for firsts in (unsorted, np.sort(unsorted)):
                lo = np.searchsorted(sums2, Z - width - firsts)
                hit = (lo < len(sums2)) & (sums2.take(lo, mode="clip") <= Z + width - firsts)
                expected = list(zip(firsts[hit].tolist(), lo[hit].tolist()))
                got = [row for s1, lo in decomposer._probe(firsts, sums2, Z, width)
                       for row in zip(s1.tolist(), lo.tolist())]
                assert got == expected, (firsts, sums2, Z, width)

    @staticmethod
    def _skewed_table(rng) -> np.ndarray:
        """A dense run and a sparse run of distinct values, the dense one at 0 or near ±2^62."""
        far = int(rng.choice([0, (1 << 62) - 2000, 2000 - (1 << 62)]))
        dense = far + int(rng.integers(-100, 100)) + np.arange(rng.integers(1, 80))
        gaps = rng.integers(1, 12, size=rng.integers(1, 40))
        sparse = int(rng.integers(-500, 500)) + np.cumsum(gaps)
        return np.unique(np.concatenate([dense, sparse]).astype(np.int64))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_self_meet_matches_splits(self, monkeypatch, chunk):
        # the lower rows, as a self-join passes them; sparse rows against dense
        # keys span more than a piece of sums, which forces the capped slice;
        # every total stays within 2^62
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        cap = decomposer.CANDIDATE_CAP
        lower_halves, parities, far = set(), set(), set()
        capped = diagonal = False
        for _ in range(400):
            sums = self._skewed_table(rng)
            x, y = (int(v) for v in rng.choice(sums, 2))
            Z = int(rng.choice([x + y, 2 * x, x + y + 1]))
            if abs(Z) >= 1 << 62:
                continue
            lo, hi = int(sums[0]), int(sums[-1])
            rows = np.array([s for s in sums.tolist() if lo <= Z - s <= hi and s <= Z // 2],
                            np.int64)
            pairs = decomposer._self_meet(sums, rows, Z)
            assert pairs == decomposer._splits(rows, sums, Z, 0).get(Z, []), (sums, Z)
            lower_halves.add(sum(Z - s1 in sums for s1 in rows.tolist()))
            parities.add(Z % 2)
            diagonal |= pairs.count((Z // 2, Z // 2)) == 1 and Z % 2 == 0
            # a lower row s1 <= Z // 2 lies far below zero, or its key far above
            far |= {v > 0 for pair in pairs for v in pair if abs(v) > 1 << 61}
            if len(rows):
                piece = rows[:chunk]
                span = sums.searchsorted(Z - piece[0], "right") - sums.searchsorted(Z - piece[-1])
                capped |= span > chunk
        assert {cap - 1, cap, cap + 1} <= lower_halves and parities == {0, 1}
        assert diagonal and far == {False, True}
        assert capped or chunk == 1  # one key spans at most one entry

    def test_meet_stops_at_the_cap(self, monkeypatch, small_searcher, mirror_searcher):
        monkeypatch.setattr(decomposer, "PROBE_CHUNK", 1)
        rows = self._counting_merge(monkeypatch)
        cap = decomposer.CANDIDATE_CAP
        # Z = 820 has 21 splits 400 + 420, ..., 420 + 400 over the 2-sums of
        # 200..218; the self-join merges exactly the 11 rows s1 <= 410 and
        # returns their 11 splits
        pairs = small_searcher._meet(820, 2, 2)
        assert len(pairs) == 11 and rows == [1] * 11
        assert pairs == _brute_meet(small_searcher, 820, 2, 2)
        # Z = 1232 has 33 splits, 17 of them with s1 <= 616: the cap fills
        # on the 16th merged row, and the walk stops there
        rows.clear()
        pairs = mirror_searcher._meet(1232, 2, 2)
        lower = [s1 for s1 in _first_half(mirror_searcher, 1232, 2, 2) if s1 <= 616]
        assert len(pairs) == cap and len(rows) == lower.index(pairs[-1][0]) + 1 == cap < len(lower)

    def test_six_sum_self_join_probes_the_lower_half(self, monkeypatch, delta_searcher, delta_1k):
        # ell = 6 meets of two 6-sum targets.  A full walk of the first one's
        # window would read about 4.2·10^6 rows before the cap fills; the
        # self-join reads only the 3-sums <= Z // 2 (about 1.6·10^6), which
        # hold 10 of its splits, so it reads each of them once and returns
        # those 10.  The second one's lower half holds 17 splits, and the walk
        # stops after the piece that holds the 16th.
        sd = delta_searcher
        sums3 = sd._half_table(3)
        lo, hi = int(sums3[0]), int(sums3[-1])
        cap = decomposer.CANDIDATE_CAP
        rows = self._counting_merge(monkeypatch)
        for indices, splits in zip(self.SIX_SUMS, (10, 17)):
            Z = sum(delta_1k.a(i) for i in indices)
            rows.clear()
            assert len(sd._meet(Z, 3, 3)) == min(splits, cap)
            lower = sums3[(sums3 >= Z - hi) & (sums3 <= min(Z - lo, Z // 2))]
            comps = Z - lower
            hits = np.flatnonzero(sums3.take(np.searchsorted(sums3, comps), mode="clip") == comps)
            assert len(hits) == splits and max(rows) <= decomposer.PROBE_CHUNK
            if splits < cap:
                assert sum(rows) == len(lower)
            else:
                assert sum(rows[:-1]) <= hits[cap - 1] < sum(rows) < len(lower)

    def test_six_sum_meet_holds_one_chunk(self, delta_searcher, delta_1k):
        sd = delta_searcher
        for h in range(1, SearchDecomposer.MAX_MEET_DEPTH // 2 + 1):
            for r in range(1, h + 1):
                sd._sums(r, sd._pool(h))
        # a sum of six a(i) with i <= 300, like the benchmark's large targets
        Z = sum(delta_1k.a(i) for i in (17, 58, 133, 201, 256, 300))
        tracemalloc.start()
        try:
            d = sd.decompose(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.ell == 6 and verify_decomposition(d, delta_1k).ok
        # The 2 + 3 and 3 + 3 meets join a 6·10^6-entry table of 3-sums.  One
        # probe chunk of PROBE_CHUNK rows (2^14) needs about four 128 KB
        # temporaries and one merge piece a 256 KB buffer; probing the whole
        # table at once made three 48 MB arrays (about 140 MB in all).  32 MB
        # is below a single table-sized array and well above one chunk.
        assert peak < 32 * 2**20

    def test_far_six_sum_meet_peak(self, delta_searcher, delta_1k):
        # Z is about -1.1·10^13, like the benchmark's 6-sums: the 3 + 3 meet's
        # keys then span far more 3-sums than rows, and each merge piece's
        # slice of the table is capped at PROBE_CHUNK entries.  The decompose
        # peaked at 0.52 MB (traced, tables prebuilt); a merge of each
        # 2^14-row piece with its whole slice read 5.8 MB.
        sd = delta_searcher
        for h in range(1, SearchDecomposer.MAX_MEET_DEPTH // 2 + 1):
            for r in range(1, h + 1):
                sd._sums(r, sd._pool(h))
        Z = sum(delta_1k.a(i) for i in (15, 164, 187, 195, 217, 239))
        assert Z == -11_103_518_303_120
        tracemalloc.start()
        try:
            d = sd.decompose(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.ell == 6 and verify_decomposition(d, delta_1k).ok
        assert peak < 2 * 0.52 * 2**20
