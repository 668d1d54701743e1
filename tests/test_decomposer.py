from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newform_basis import (
    FORM_11A,
    ConstructivePipeline,
    Decomposition,
    InfeasibleError,
    SearchDecomposer,
    VerificationError,
    cf_bound,
    decompose_constructive,
    decompose_search,
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

    def test_one_shot_wrapper(self, table_100k):
        d = decompose_constructive(table_100k, 8777)
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
        sd = SearchDecomposer(delta_1k, n_max=50)
        sd._value_first_index[252] = 4  # a(4) = -1472, not 252
        with pytest.raises(VerificationError):
            sd.decompose(252)

    @pytest.mark.parametrize("form", ["delta", "11a"])
    def test_lexmin_matches_brute_force(self, delta_1k, f11a_1k, form):
        # 11a repeats values often, so many index tuples share one sum
        table = delta_1k if form == "delta" else f11a_1k
        sd = SearchDecomposer(table, n_max=12)
        for K in range(1, 13):
            for h in range(1, 5):
                lexmin: dict[int, tuple[int, ...]] = {}
                for t in combinations_with_replacement(range(1, K + 1), h):
                    lexmin.setdefault(sum(table.a(i) for i in t), t)  # emitted in lex order
                for s, t in lexmin.items():
                    assert sd._lexmin(s, h, K) == t

    def test_11a_small_band_finishes(self):
        # 11a's small values repeat often: the 2+2 band finishes only because
        # it loops over distinct half-sums, not over every pair of 2-sums
        table = expand_eta_product(FORM_11A, 500)
        d = SearchDecomposer(table).decompose(-127)
        assert d.ell == 4 and verify_decomposition(d, table).ok

    def test_baseline_fallback_works(self, delta_1k):
        # a searcher with no meet tables still produces the padding fallback
        sd = SearchDecomposer(delta_1k, half_sum_budget=1)
        d = sd.decompose(-97)
        assert d is not None
        assert verify_decomposition(d, delta_1k).delta == 0

    def test_one_shot_wrapper(self, delta_1k):
        d = decompose_search(delta_1k, 229, n_max=50)
        assert d is not None
        assert verify_decomposition(d, delta_1k).delta == 0
