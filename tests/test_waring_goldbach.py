import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_ordered_count, naive_ordered_counts
from newform_basis import (
    MemoryGuardError,
    count_representations,
    find_solution,
    hua_constants,
    hua_main_term,
    singular_series,
)
from newform_basis.primes import primes_up_to
from newform_basis import waring_goldbach


class TestHuaConstants:
    @pytest.mark.parametrize("e,K,s0", [(1, 2, 2), (3, 2, 8), (5, 2, 32), (7, 2, 128)])
    def test_odd_exponents(self, e, K, s0):
        h = hua_constants(e)
        assert (h.K, h.s0) == (K, s0)

    def test_even_exponents_classical_K(self):
        assert hua_constants(2).K == 24
        assert hua_constants(4).K == 240

    def test_large_exponent_s0(self):
        assert hua_constants(11).s0 == 1978

    def test_kw_bound_positive(self):
        for e in range(1, 25):
            assert hua_constants(e).kw_bound >= 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hua_constants(0)


class TestCounts:
    def test_spec_examples(self):
        assert count_representations(10, 2, 1) == 3
        assert count_representations(2, 1, 1) == 1
        assert count_representations(9, 3, 1) == 4

    @pytest.mark.parametrize("s,e", [(2, 1), (3, 1), (2, 3), (3, 3)])
    def test_matches_nested_loop_oracle(self, s, e):
        primes = primes_up_to(120)
        table = naive_ordered_counts(120, s, e, primes)
        for Z in range(1, 121):
            assert count_representations(Z, s, e) == table[Z]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=3),
           st.sampled_from([1, 3]))
    def test_matches_brute_force(self, Z, s, e):
        expected = brute_force_ordered_count(Z, s, e, primes_up_to(300))
        assert count_representations(Z, s, e) == expected

    def test_size_impossibility(self):
        for Z in range(1, 16):
            assert count_representations(Z, 2, 3) == 0  # Z < 2 * 2^3

    def test_parity_bookkeeping(self):
        odd_only = lambda p: p != 2
        for Z in range(6, 60, 2):  # even Z, s = 3: three odd primes sum odd
            assert count_representations(Z, 3, 1, odd_only) == 0
        assert count_representations(15, 3, 1, odd_only) > 0

    def test_predicate_filter(self):
        no_small = lambda p: p > 3
        assert count_representations(10, 2, 1, no_small) == 1  # only (5, 5)

    def test_memory_guard(self):
        with pytest.raises(MemoryGuardError):
            count_representations(2**26, 2, 1)

    def test_bigint_escalation_matches_int64(self, monkeypatch):
        baseline = [count_representations(Z, 4, 1) for Z in range(20, 60)]
        monkeypatch.setattr(waring_goldbach, "_INT64_GUARD", 4)
        escalated = [count_representations(Z, 4, 1) for Z in range(20, 60)]
        assert baseline == escalated


class TestFindSolution:
    def test_deterministic_greedy(self):
        sol = find_solution(10, 2, 1)
        assert sol.primes == (3, 7)

    def test_parity_forces_two(self):
        with pytest.warns(UserWarning):
            sol = find_solution(9, 2, 1)
        assert sol.primes == (2, 7)

    def test_constructed_high_exponent(self):
        Z = 3 * 3**11 + 5**11
        sol = find_solution(Z, 4, 11)
        assert sol.primes == (3, 3, 3, 5)

    def test_none_when_absent(self):
        with pytest.warns(UserWarning):
            assert find_solution(11, 2, 1) is None  # 11 = p + q has no prime solution

    def test_unsorted_allowed(self):
        assert find_solution(10, 2, 1, allowed=[7, 5, 3]).primes == (3, 7)

    def test_solution_reverifies(self):
        sol = find_solution(100, 4, 1)
        assert sol is not None and sol.verify()
        assert sum(p**sol.e for p in sol.primes) == 100

    def test_budget_exhaustion_returns_none(self):
        assert find_solution(10**6 + 2, 2, 1, node_budget=1) is None


class TestSingularSeries:
    def test_q1_term(self):
        assert singular_series(5, 3, 1, 1).value == pytest.approx(1.0)

    def test_ternary_odd_positive(self):
        est = singular_series(101, 3, 1, 100)
        assert est.value > 0.5
        assert est.normalization == "hua-standard"

    def test_ternary_even_obstructed(self):
        assert abs(singular_series(100, 3, 1, 200).value) < 0.2

    def test_truncation_stability(self):
        # instances inside the fast-decay regime hold the 1e-6 window
        for Z in (1001, 4999):
            a = singular_series(Z, 8, 1, 500).value
            b = singular_series(Z, 8, 1, 1000).value
            assert abs(a - b) < 1e-6

    def test_reordering_invariance(self):
        # per-q increments re-summed in reverse agree with the forward value
        increments = []
        prev = 0.0
        for q in range(1, 41):
            cur = singular_series(99, 3, 1, q).value
            increments.append(cur - prev)
            prev = cur
        assert math.fsum(reversed(increments)) == pytest.approx(prev, abs=1e-9)


class TestMainTerm:
    def test_formula_instantiation(self):
        est = singular_series(101, 2, 1, 50)
        # s/e - 1 = 1: value reduces to ss * Z / log^2 Z
        expected = est.value * 101 / math.log(101) ** 2
        assert hua_main_term(101, 2, 1, est) == pytest.approx(expected)

    def test_zero_series_gives_zero(self):
        from newform_basis import SingularSeriesEstimate

        assert hua_main_term(10**6, 8, 3, SingularSeriesEstimate(0.0, 10)) == 0.0

    def test_finite_positive(self):
        est = singular_series(10**6, 8, 3, 200)
        value = hua_main_term(10**6, 8, 3, est)
        assert value > 0 and math.isfinite(value)

    def test_requires_z_at_least_3(self):
        est = singular_series(101, 2, 1, 10)
        with pytest.raises(ValueError):
            hua_main_term(2, 2, 1, est)
