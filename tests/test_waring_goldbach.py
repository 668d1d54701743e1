import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_ordered_count,
    naive_ordered_counts,
    naive_series_term,
    naive_singular_series,
)
from newform_basis import (
    MemoryGuardError,
    VerificationError,
    count_representations,
    find_solution,
    hua_constants,
    hua_main_term,
    singular_series,
)
from newform_basis.primes import integer_nth_root, is_prime, primes_up_to
from newform_basis import primes, waring_goldbach
from newform_basis.waring_goldbach import prime_powers


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
        odd = primes_up_to(60)[1:]
        for Z in range(6, 60, 2):  # even Z, s = 3: three odd primes sum odd
            assert count_representations(Z, 3, 1, allowed=odd) == 0
        assert count_representations(15, 3, 1, allowed=odd) > 0

    def test_predicate_filter(self):
        no_small = [p for p in primes_up_to(10) if p > 3]
        assert count_representations(10, 2, 1, allowed=no_small) == 1  # only (5, 5)

    def test_memory_guard(self):
        # the first step of (2^26, 3, 1) over the 9592 primes to 10^5 is a
        # product over 2^26 + 1 cells; it raises before that layer is allocated
        with pytest.raises(MemoryGuardError, match="product step to T_2: 67108865 cells"):
            count_representations(2**26, 3, 1, allowed=primes_up_to(10**5))

    def test_default_pool_refused_before_the_sieve(self):
        # pi(10^9) >= 10^9 / ln 10^9 > 2^23 powers: refused before any sieve
        # or power list is built (the sieve to 10^9 alone is a 1 GiB bitmap)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuardError, match="the powers of T_1"):
                count_representations(10**18, 4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_pair_sums_stay_in_int64(self):
        # with p about 6.5·10^18, the pair sum 2p wraps in int64 onto
        # Z = 4p - 2^64 < 2^63, and Z - 2p wraps back onto it: Z >= 2^62 is refused
        p = 6_500_000_000_000_000_023
        assert is_prime(p) and 4 * p - 2**64 < 2**63
        with pytest.raises(ValueError, match="need Z < 2\\^62"):
            count_representations(4 * p - 2**64, 4, 1, allowed=[p])
        q = 2**61 - 1  # a Mersenne prime: 2q = 2^62 - 2 is the largest sum accepted
        assert count_representations(2 * q, 2, 1, allowed=[q]) == 1
        with pytest.raises(ValueError, match="need Z < 2\\^62"):
            count_representations(2**62, 2, 1, allowed=[q])

    @pytest.mark.parametrize("Z, count", [(9 * 10**6 + 1, 154_560), (10**7 + 1, 292_320)])
    def test_cell_budget_binds_allocations_not_Z(self, Z, count):
        # eight prime cubes past Z + 1 = 2^23 cells: every layer stays in
        # support form, the largest step 46 powers times the 3-sums; the
        # counts match a dict-based 4 + 4 meet over the prime cubes
        assert Z + 1 > waring_goldbach._MAX_DP_CELLS
        assert count_representations(Z, 8, 3) == count

    def test_bigint_escalation_matches_int64(self, monkeypatch):
        baseline = [count_representations(Z, 4, 1) for Z in range(20, 60)]
        monkeypatch.setattr(waring_goldbach, "_INT64_GUARD", 4)
        escalated = [count_representations(Z, 4, 1) for Z in range(20, 60)]
        assert baseline == escalated

    @pytest.mark.parametrize("s", range(1, 7))
    def test_split_matches_nested_loop_oracle(self, s):
        # odd and even s split into ceil(s/2) and floor(s/2) halves differently
        odd = [p for p in primes_up_to(150) if p != 2]
        table = naive_ordered_counts(150, s, 1, odd)
        prepared = prime_powers(odd, 1)
        for Z in range(1, 151):
            assert count_representations(Z, s, 1, allowed=odd) == table[Z], Z
            assert count_representations(Z, s, 1, allowed=prepared) == table[Z], Z

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_escalation_at_the_final_product_only(self, monkeypatch, s):
        # s = 2 builds no layer; for s = 3, 4 the one layer T_2 comes from the
        # FFT product (n^2 > Z + 1 here), whose digits hold any count, so a
        # guard of n holds only the final product's bound, which exceeds it
        Zs = range(20, 200, 3)
        baseline = [count_representations(Z, s, 1) for Z in Zs]
        dots = []
        dot = np.dot
        monkeypatch.setattr(np, "dot", lambda a, b: dots.append((a.dtype, b.dtype)) or dot(a, b))
        for Z, expected in zip(Zs, baseline):
            guard = 1 if s == 2 else len(primes_up_to(Z))
            monkeypatch.setattr(waring_goldbach, "_INT64_GUARD", guard)
            dots.clear()
            assert count_representations(Z, s, 1) == expected, Z
            # the matched cells fit one block of the exact dot; a count of 0 matches none
            assert dots == [(np.dtype(object), np.dtype(object))] * (expected > 0), Z
        assert any(baseline)

    def test_at_most_two_layers_alive(self):
        Z = 3 * 10**5
        count_representations(Z, 8, 3)  # the shared sieve is grown outside the trace
        tracemalloc.start()
        try:
            count_representations(Z, 8, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * (Z + 1)

    def test_exact_dot_holds_one_block(self, monkeypatch):
        # the T_3 counts of six primes summing to 3 * 10^5 + 1 stay int64, and
        # only the final dot's bound escalates; converting one block of
        # matched cells at a time gives the whole-array dot's count
        Z, block = 3 * 10**5 + 1, waring_goldbach._DOT_BLOCK
        exact_dot, calls = waring_goldbach._exact_dot, []

        def traced(x, y):
            tracemalloc.start()
            try:
                result = exact_dot(x, y)
                calls.append((len(x), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return result

        monkeypatch.setattr(waring_goldbach, "_exact_dot", traced)
        count = count_representations(Z, 6, 1)
        (cells, peak), = calls
        monkeypatch.setattr(waring_goldbach, "_exact_dot", exact_dot)
        monkeypatch.setattr(waring_goldbach, "_DOT_BLOCK", cells)  # one block: the whole arrays
        assert count_representations(Z, 6, 1) == count == 33_587_162_516_693_160
        # each count is a 28 B Python int in an 8 B object slot, so both arrays
        # take 72 B a cell: one block of them, not the 18 times as many
        # matched cells of the whole arrays
        assert cells > 18 * block and peak <= 1.25 * 72 * block

    def test_plain_allowed_counts_each_prime_once(self):
        assert count_representations(6, 2, 1, allowed=[3, 3]) == 1
        assert count_representations(10, 2, 1, allowed=[7, 3, 5, 3, 7]) == 3
        assert count_representations(9, 3, 1, allowed=[3, 3]) == 1
        assert count_representations(15, 5, 1, allowed=[3, 3, 3]) == 1
        assert find_solution(6, 2, 1, allowed=[3, 3]).primes == (3, 3)

    def test_plain_allowed_rejects_a_non_prime(self):
        with pytest.raises(ValueError, match="allowed entry 4 is not a prime"):
            count_representations(8, 2, 1, allowed=[4])
        with pytest.raises(ValueError, match="allowed entry 9 is not a prime"):
            count_representations(20, 2, 1, allowed=[3, 9, 1, 4])
        with pytest.raises(ValueError, match="allowed entry 1 is not a prime"):
            find_solution(2, 2, 1, allowed=np.array([1, 2]))


class TestSparseLayers:
    """Every layer held as its support: a step takes pair sums while its pair
    list is at most Z + 1 long, and one exact FFT product of the layer spread
    over Z + 1 cells with the indicator of the powers once it would be longer."""

    @staticmethod
    def record_pair_steps(monkeypatch) -> list[tuple[int, np.dtype]]:
        """(support size, count dtype) of every layer step taken by pair sums."""
        steps = []
        pair_sums = waring_goldbach._pair_sums
        monkeypatch.setattr(waring_goldbach, "_pair_sums",
                            lambda keys, T, w, Z: steps.append((len(keys), T.dtype)) or pair_sums(keys, T, w, Z))
        return steps

    def test_build_crosses_from_pair_sums_to_dense(self, monkeypatch):
        # eight squares to 2000: T_2 (14 x 14 pairs) and T_3 (75 x 14) come from
        # pair sums, T_4 (at least 2001 pairs) from the FFT product
        table = naive_ordered_counts(2000, 8, 2, primes_up_to(2000))
        for Z in range(1, 2001):
            assert count_representations(Z, 8, 2) == table[Z], Z
        steps = self.record_pair_steps(monkeypatch)
        count_representations(2000, 8, 2)
        assert [size for size, _ in steps] == [14, 75]
        # a guard of 4 escalates both pair-sum layers to Python ints, which
        # the product step takes apart into digits
        steps.clear()
        monkeypatch.setattr(waring_goldbach, "_INT64_GUARD", 4)
        assert count_representations(2000, 8, 2) == table[2000]
        assert steps == [(14, np.dtype(object)), (75, np.dtype(object))]

    @pytest.mark.parametrize("e, z_max", [(2, 700), (3, 3000)])
    @pytest.mark.parametrize("s", range(1, 9))
    def test_matches_nested_loop_oracle(self, s, e, z_max):
        table = naive_ordered_counts(z_max, s, e, primes_up_to(z_max))
        for Z in range(1, z_max + 1, 3):
            assert count_representations(Z, s, e) == table[Z], Z

    def test_dense_count_matches_a_sieve(self):
        # ternary Goldbach: T_2 comes from one FFT product at once (pi(Z)^2 >
        # Z + 1).  The oracle sieves on its own and, for each p1, counts the
        # p2 with Z - p1 - p2 prime
        Z = 10**5 + 1
        flags = np.ones(Z + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(Z) + 1):
            if flags[p]:
                flags[p * p::p] = False
        ps = np.flatnonzero(flags)
        expected = sum(int(np.count_nonzero(flags[Z - p - ps[ps <= Z - p]])) for p in ps.tolist())
        assert expected == 11_596_623
        assert count_representations(Z, 3, 1) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=6),
           st.sampled_from([1, 2, 3]),
           st.lists(st.sampled_from(primes_up_to(400)), max_size=40))
    def test_allowed_lists_and_pools_match_oracle(self, Z, s, e, allowed):
        # plain lists may repeat a prime and come unsorted; each prime counts once
        distinct = sorted(set(allowed))
        expected = naive_ordered_counts(Z, s, e, distinct)[Z]
        assert count_representations(Z, s, e, allowed=allowed) == expected
        assert count_representations(Z, s, e, allowed=prime_powers(distinct, e)) == expected

    def test_edge_cases(self, monkeypatch):
        steps = self.record_pair_steps(monkeypatch)
        # T_3 is empty below 3 * 2^2: the build stops at the empty layer
        assert count_representations(11, 8, 2) == 0
        assert [size for size, _ in steps] == [2, 1]
        assert [count_representations(Z, 5, 3) for Z in range(1, 40)] == [0] * 39
        # s = 1: Z is one allowed power or not
        assert count_representations(7**3, 1, 3) == 1
        assert count_representations(7**3 + 1, 1, 3) == 0
        assert count_representations(2, 1, 1) == 1 and count_representations(4, 1, 1) == 0
        assert count_representations(11**2, 1, 2, allowed=[3, 11, 11]) == 1
        # Z equal to one power: the largest allowed power is Z itself
        assert count_representations(5**3, 2, 3) == 0
        assert count_representations(13**2, 2, 2) == naive_ordered_counts(169, 2, 2, primes_up_to(13))[169]
        assert count_representations(2**3, 1, 3, allowed=[2]) == 1
        assert count_representations(2**3, 2, 3, allowed=[2]) == 0

    def test_bigint_escalation_in_pair_sums_matches_int64(self, monkeypatch):
        # the e = 3 twin of TestCounts.test_bigint_escalation_matches_int64:
        # eight cubes below 3000 stay sparse, so the pair sums run on object counts
        Zs = range(64, 3000, 29)
        baseline = [count_representations(Z, 8, 3) for Z in Zs]
        steps = self.record_pair_steps(monkeypatch)
        monkeypatch.setattr(waring_goldbach, "_INT64_GUARD", 4)
        assert [count_representations(Z, 8, 3) for Z in Zs] == baseline
        assert any(baseline)
        assert np.dtype(object) in {dtype for _, dtype in steps}

    def test_sparse_build_allocates_less_than_one_dense_layer(self):
        # every layer of eight cubes to 3 * 10^5 stays sparse: no Z + 1 array
        Z = 3 * 10**5
        count_representations(Z, 8, 3)  # the shared sieve is grown outside the trace
        tracemalloc.start()
        try:
            count_representations(Z, 8, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (Z + 1)


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

    @pytest.mark.filterwarnings("ignore:Z = ")
    @pytest.mark.parametrize("order", [1, -1])
    def test_none_with_budget_left_is_a_proof(self, monkeypatch, order):
        # the memo and both prunings are sound: a None within the node budget
        # means no solution exists; each order starts from an empty shared sieve
        # and crosses its growth (ascending) or cuts one large sieve (descending)
        monkeypatch.setattr(primes, "_SIEVE", (0, primes._SIEVE[1][:0]))
        for Z in range(1, 301)[::order]:
            for s in (2, 3):
                none = find_solution(Z, s, 1) is None
                assert none == (count_representations(Z, s, 1) == 0), (Z, s)

    def test_solves_below_a_warm_bound_do_not_sieve(self, monkeypatch):
        with pytest.warns(UserWarning):
            find_solution(10**6, 3, 1)
        calls = []
        sieve = primes.sieve_bitmap
        monkeypatch.setattr(primes, "sieve_bitmap", lambda n: calls.append(n) or sieve(n))
        for Z in range(10**6 - 1, 0, -10**4):
            assert find_solution(Z, 3, 1) is not None
        assert calls == []

    def test_ndarray_allowed_powers_are_exact(self):
        # 59^11 and 61^11 exceed int64: the powers must be Python ints
        Z = 2 * 59**11 + 2 * 61**11
        assert find_solution(Z, 4, 11, allowed=np.array([61, 59])).primes == (59, 59, 61, 61)

    @pytest.mark.filterwarnings("ignore:Z = ")
    def test_prepared_pool_matches_plain_allowed(self):
        pool = primes_up_to(400)[3:]
        for e, s in ((1, 2), (1, 3), (3, 4)):
            prepared = prime_powers(pool, e)
            for Z in range(1, 1500):
                plain = find_solution(Z, s, e, allowed=pool[::-1])
                assert find_solution(Z, s, e, allowed=prepared) == plain
        with pytest.raises(ValueError):
            find_solution(10, 2, 3, allowed=prime_powers(pool, 1))

    def test_prepared_pool_is_checked_once(self):
        for bad, message in (([3, 3], "ascend strictly: 3 then 3"),
                             ([5, 3], "ascend strictly: 5 then 3"),
                             ([4, 5], "entry 4 is not a prime"),
                             ([1], "entry 1 is not a prime"),
                             (np.array([2, 3, 91]), "entry 91 is not a prime")):
            with pytest.raises(ValueError, match=message):
                prime_powers(bad, 1)
        assert prime_powers([], 3).powers == []
        assert prime_powers(np.array([2, 3, 5]), 1).primes.tolist() == [2, 3, 5]
        assert count_representations(9, 3, 1, allowed=prime_powers([3], 1)) == 1

    def test_prepared_pool_takes_primes_past_the_sieve(self):
        # entries above MAX_SIEVE are tested by is_prime, not by a sieve to them
        p = 2**31 - 1
        assert p > primes.MAX_SIEVE
        pool = prime_powers([3, p], 1)
        assert pool.primes == [3, p]
        assert count_representations(2 * p, 2, 1, allowed=prime_powers([p], 1)) == 1
        assert count_representations(2 * p, 2, 1, allowed=[p]) == 1
        assert find_solution(3 + p, 2, 1, allowed=pool).primes == (3, p)
        with pytest.raises(ValueError, match=f"entry {2**31 + 1} is not a prime"):
            prime_powers([3, 2**31 + 1], 1)  # 3 * 715827883

    @pytest.mark.filterwarnings("ignore:Z = ")
    def test_default_pool_refused_before_the_sieve(self):
        # pi(10^9) >= 10^9 / ln 10^9 > 2^23 squares: refused before the sieve
        # to 10^9 (a 1 GiB bitmap) and its two lists of about 5·10^7 ints
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuardError, match="the default pool \\(a lower bound"):
                find_solution(10**18, 4, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # two cubes near 2^63: about 1.6·10^5 primes, the powers exact ints
        assert find_solution(1659971**3 + 1659997**3, 2, 3).primes == (1659971, 1659997)

    def test_unpooled_solves_skip_the_pool_check(self, monkeypatch):
        # without a prepared pool nothing is checked twice: the sieve cut is
        # prime by construction and a plain ``allowed`` has its own check
        monkeypatch.setattr(waring_goldbach, "prime_powers", None)
        plain = count_representations(100, 2, 1, allowed=primes_up_to(100))
        assert count_representations(100, 2, 1) == plain
        assert find_solution(1001, 3, 1) is not None

    def test_solution_reverifies(self):
        sol = find_solution(100, 4, 1)
        assert sol is not None and sol.verify()
        assert sum(p**sol.e for p in sol.primes) == 100

    def test_budget_exhaustion_returns_none(self, monkeypatch):
        monkeypatch.setattr(waring_goldbach, "DEFAULT_NODE_BUDGET", 1)
        assert find_solution(10**6 + 2, 2, 1) is None

    def test_invalid_solution_raises_verification_error(self, monkeypatch):
        monkeypatch.setattr(waring_goldbach.WGSolution, "verify", lambda self: False)
        with pytest.raises(VerificationError, match=r"Z=101, s=3, e=1\) produced an invalid solution: primes \("):
            find_solution(101, 3, 1)


class TestSingularSeries:
    def test_q1_term(self):
        assert singular_series(5, 3, 1, 1).value == pytest.approx(1.0)

    @pytest.mark.parametrize("s,e", [(3, 0), (0, 1), (-1, 3)])
    def test_rejects_bad_s_or_e(self, s, e):
        with pytest.raises(ValueError, match="need s >= 1, e >= 1"):
            singular_series(5, s, e, 10)

    def test_power_residues_match_pow(self):
        for q in (1, 2, 12, 97, 1000):
            residues = np.arange(q)
            for e in (1, 2, 3, 7, 64, 10**6 + 3):
                expected = [pow(x, e, q) for x in range(q)]
                assert waring_goldbach._power_residues(residues, e, q).tolist() == expected

    @pytest.mark.parametrize("e", [1, 2, 3, 7])
    @pytest.mark.parametrize("s", [2, 3, 8])
    def test_matches_naive_oracle(self, s, e):
        for Z in (1, 2, 99, 101, 3 * 10**5, 2**70 + 1):
            for q_max in (1, 2, 12, 30, 40):
                expected = naive_singular_series(Z, s, e, q_max)
                value = singular_series(Z, s, e, q_max).value
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected)), (Z, q_max)

    @pytest.mark.parametrize("Z,s,e", [(101, 3, 1), (2**70 + 1, 8, 3), (3 * 10**5, 2, 7)])
    def test_composite_terms_are_products_of_local_factors(self, Z, s, e):
        # the library evaluates exponential sums only at prime powers; its
        # composite-q terms must equal the direct per-q evaluation
        A = waring_goldbach._local_factors(Z, s, e, 900)
        for q in (6, 12, 30, 36, 60, 210, 360, 900):
            assert abs(A[q] - naive_series_term(q, Z, s, e)) <= 1e-12, q

    def test_rejects_q_max_past_exact_residues(self, monkeypatch):
        # (q_max - 1)^2 < 2^63 holds up to q_max = isqrt(2^63 - 1) + 1; the check
        # runs before any modulus, so a stub stands in for the evaluation
        monkeypatch.setattr(waring_goldbach, "_local_factors", lambda Z, s, e, q_max: [0j, 1 + 0j])
        q_ok = math.isqrt(2**63 - 1) + 1
        assert singular_series(5, 3, 1, q_ok).value == 1.0
        for q_max in (q_ok + 1, 2**40):
            with pytest.raises(ValueError, match=r"\(q_max - 1\)\^2 < 2\^63"):
                singular_series(5, 3, 1, q_max)

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


    def test_non_real_residue_raises_verification_error(self, monkeypatch):
        monkeypatch.setattr(waring_goldbach, "_local_factors", lambda Z, s, e, q_max: [0j, 1 + 1j])
        with pytest.raises(VerificationError, match="Z=10, s=3, e=1 has non-real residue 1.0"):
            singular_series(10, 3, 1, 1)


# Ordered 8-tuples of prime cubes at the acceptance criterion 10 heights, by
# j, the number of summands equal to 3^3 (classes with no tuple left out),
# and their totals.  Z = 10^5 and 10^6 are 1 mod 9; at 10^6 most tuples use p = 3.
CRITERION10_SPLIT = {
    10**5: ({}, 0),
    3 * 10**5: ({0: 1120}, 1120),
    10**6: ({0: 3360, 1: 120960, 3: 3360}, 127680),
}


@pytest.mark.parametrize("Z", sorted(CRITERION10_SPLIT))
def test_criterion10_counts_split_by_summands_equal_to_27(Z):
    # C(8, j) places the j threes; the other 8 - j summands avoid 3.  j = 8
    # would need Z = 216.
    pool = [p for p in primes_up_to(integer_nth_root(Z, 3)) if p != 3]
    split = {
        j: math.comb(8, j) * count_representations(Z - 27 * j, 8 - j, 3, allowed=pool)
        for j in range(8)
    }
    classes, total = CRITERION10_SPLIT[Z]
    assert {j: c for j, c in split.items() if c} == classes
    assert sum(split.values()) == total == count_representations(Z, 8, 3)


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

    @pytest.mark.parametrize("s, e", [(3, 0), (0, 3)])
    def test_requires_s_and_e_at_least_1(self, s, e):
        # e = 0 divided by zero and s = 0 took lgamma(0)
        with pytest.raises(ValueError, match="main term needs Z >= 3, s >= 1, e >= 1"):
            hua_main_term(10, s, e, singular_series(10, 3, 1, 10))
