import random

import pytest

from newform_basis import (
    AdmissibleSet,
    CoeffTable,
    InfeasibleError,
    MemoryGuardError,
    NewformDescriptor,
    cardinality_report,
    dyadic_construction,
    greedy_maximal,
    is_admissible,
    prime_sets,
    repair,
)
from newform_basis import admissible


class TestIsAdmissible:
    def test_distinct_singletons(self, delta_1k):
        assert is_admissible([3, 7], 1, delta_1k).ok

    def test_equal_values_collide(self, f11a_1k):
        # a(19) = a(29) = 0
        check = is_admissible([19, 29], 1, f11a_1k)
        assert not check.ok
        assert set(check.counterexample) == {(19,), (29,)}

    def test_pairs_on_delta(self, delta_1k):
        assert is_admissible([3, 5, 7, 13], 2, delta_1k, method="brute-force").ok
        assert is_admissible([3, 5, 7, 13], 2, delta_1k).ok

    def test_too_few_primes(self, delta_1k):
        with pytest.raises(ValueError):
            is_admissible([3], 2, delta_1k)

    def test_duplicates_rejected(self, delta_1k):
        with pytest.raises(ValueError):
            is_admissible([3, 3, 5], 1, delta_1k)

    @pytest.mark.parametrize("method", ["hash-collision", "brute-force"])
    def test_k_below_1_rejected(self, delta_1k, method):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            is_admissible([3, 5, 7], 0, delta_1k, method=method)

    def test_memory_guard(self, monkeypatch, delta_1k):
        monkeypatch.setattr(admissible, "MAX_STORED_SUMS", 100)
        with pytest.raises(MemoryGuardError):
            is_admissible(list(delta_1k.primes()[:40]), 3, delta_1k)

    def test_hash_equals_brute_force(self, delta_1k, f11a_1k):
        rng = random.Random(8)
        for table in (delta_1k, f11a_1k):
            candidates, _ = prime_sets(table, 1000)
            for _ in range(40):
                k = rng.randint(1, 3)
                size = rng.randint(max(k, 2), 10)
                primes = rng.sample(candidates, size)
                a = is_admissible(primes, k, table)
                b = is_admissible(primes, k, table, method="brute-force")
                assert a.ok == b.ok


class TestGreedyMaximal:
    def test_inclusion_maximal_11a(self, f11a_1k):
        candidates, _ = prime_sets(f11a_1k, 1000)
        S = greedy_maximal(candidates, 1, f11a_1k)
        members = set(S.primes)
        assert is_admissible(S.primes, 1, f11a_1k).ok
        assert len(S) >= 2
        assert S.check_bound == candidates[-1]
        for p in candidates:
            if p not in members:
                assert not is_admissible(sorted(members | {p}), 1, f11a_1k).ok

    def test_single_admissible_pair(self, f11a_1k):
        # candidates that already form the only admissible 2-set
        S = greedy_maximal([3, 5], 1, f11a_1k)
        assert S.primes == (3, 5)

    def test_needs_2k_candidates(self, delta_1k):
        with pytest.raises(InfeasibleError):
            greedy_maximal([3, 5, 7], 2, delta_1k)

    def test_k_below_1_rejected(self, f11a_1k):
        # k = 0 would keep every candidate: its one empty subset never collides
        candidates, _ = prime_sets(f11a_1k, 300)
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                greedy_maximal(candidates, k, f11a_1k)

    def test_size_target_stops_early(self, f11a_1k):
        candidates, _ = prime_sets(f11a_1k, 1000)
        S = greedy_maximal(candidates, 1, f11a_1k, size_target=5)
        assert len(S) == 5
        assert S.check_bound <= candidates[5]

    def test_maximality_memory_guard(self, monkeypatch, delta_1k):
        # C(|candidates|, k) is checked before any sum is stored
        candidates, _ = prime_sets(delta_1k, 200)
        monkeypatch.setattr(admissible, "MAX_STORED_SUMS", 100)
        monkeypatch.setattr(admissible, "_SubsetSums", None)
        with pytest.raises(MemoryGuardError, match="maximality over 45 candidates"):
            greedy_maximal(candidates, 2, delta_1k)

    def test_store_memory_guard_under_size_target(self, monkeypatch, delta_1k):
        # size_target skips the up-front check; the store guards itself
        candidates, _ = prime_sets(delta_1k, 200)
        monkeypatch.setattr(admissible, "MAX_STORED_SUMS", 20)
        with pytest.raises(MemoryGuardError, match="store would exceed 20 entries"):
            greedy_maximal(candidates, 2, delta_1k, size_target=40)

    def test_delta_k2_small(self, delta_1k):
        candidates, _ = prime_sets(delta_1k, 200)
        S = greedy_maximal(candidates, 2, delta_1k)
        assert len(S) >= 4
        assert is_admissible(S.primes, 2, delta_1k).ok

    @pytest.mark.parametrize("k, candidates", [
        (2, [3, 5, 7, 11, 13]),
        (3, [3, 5, 7, 11, 13, 17, 19, 23]),
        (4, [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    ])
    def test_shared_lower_sums_are_rejected(self, k, candidates):
        # a(3) = a(5): {3} u A and {5} u A share a sum for every A, so a
        # set holding 3, 5 and k-1 further primes is not admissible
        values = [0] * 60
        values[0] = values[2] = values[4] = 1
        for i, p in enumerate(candidates[2:]):
            values[p - 1] = 10 + 20 * i if k == 2 else 10 ** (i + 1)
        table = CoeffTable(NewformDescriptor(2, 1, "synthetic"), 60, values)
        try:
            S = greedy_maximal(candidates, k, table)
        except InfeasibleError:
            return
        assert is_admissible(S.primes, k, table, method="brute-force").ok


class TestDyadic:
    def test_11a_l0_4(self, f11a_1k):
        S = dyadic_construction(f11a_1k, 1, 4)
        assert len(S.primes) == 2
        p1, p2 = S.primes
        assert 16 <= p1 <= 32 and 256 <= p2 <= 512
        assert abs(f11a_1k.a(p1)) < abs(f11a_1k.a(p2))
        _, has_large = prime_sets(f11a_1k, 1000)
        assert has_large(p1) and has_large(p2)
        assert is_admissible(S.primes, 1, f11a_1k).ok

    def test_small_l0_is_guarded(self, f11a_1k):
        # below the contradiction threshold the admissibility check decides;
        # here the first interval [4, 8] has no qualifying prime at all
        with pytest.raises(InfeasibleError):
            dyadic_construction(f11a_1k, 1, 2)

    def test_k_below_1_rejected(self, f11a_1k):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            dyadic_construction(f11a_1k, 0, 2)

    def test_delta_k6_infeasible(self, delta_1k):
        from newform_basis import TableTooSmallError

        with pytest.raises(TableTooSmallError):
            dyadic_construction(delta_1k, 6, 18)


class TestRepair:
    def test_all_excluded_primes_repairable(self, f11a_1k):
        candidates, _ = prime_sets(f11a_1k, 300)
        S = greedy_maximal(candidates, 1, f11a_1k)
        members = set(S.primes)
        excluded = [p for p in candidates if p not in members]
        assert excluded
        for p in excluded:
            witness = repair(p, S, f11a_1k)
            assert witness.verify(f11a_1k)
            assert len(witness.plus) == 1 and len(witness.minus) == 0

    def test_k2_witness_shape(self, delta_1k):
        candidates, _ = prime_sets(delta_1k, 200)
        S = greedy_maximal(candidates, 2, delta_1k)
        members = set(S.primes)
        excluded = [p for p in candidates if p not in members]
        for p in excluded:
            witness = repair(p, S, delta_1k)
            assert witness.verify(delta_1k)
            assert len(witness.plus) == 2 and len(witness.minus) == 1

    @pytest.mark.parametrize("k, bound", [(1, 300), (2, 200)])
    def test_stored_sums_give_the_rebuilt_witness(self, f11a_1k, delta_1k, k, bound):
        table = f11a_1k if k == 1 else delta_1k
        candidates, _ = prime_sets(table, bound)
        S = greedy_maximal(candidates, k, table)
        bare = AdmissibleSet(k, S.primes, S.method, S.check_bound)
        assert S.sums is not None and bare.sums is None and S == bare
        for p in candidates:
            if p not in S:
                assert repair(p, S, table) == repair(p, bare, table)

    def test_enumeration_memory_guard(self, monkeypatch, f11a_1k):
        # k = 1 enumerates C(|S|, 1) + C(|S|, 0) = |S| + 1 sums
        candidates, _ = prime_sets(f11a_1k, 300)
        S = greedy_maximal(candidates, 1, f11a_1k)
        p = next(p for p in candidates if p not in S)
        monkeypatch.setattr(admissible, "MAX_STORED_SUMS", len(S) + 1)
        assert repair(p, S, f11a_1k).verify(f11a_1k)
        monkeypatch.setattr(admissible, "MAX_STORED_SUMS", len(S))
        with pytest.raises(MemoryGuardError) as err:
            repair(p, S, f11a_1k)
        assert str(err.value) == (
            f"subset-sum enumeration of C({len(S)}, 1) + C({len(S)}, 0) = {len(S) + 1} sums "
            f"exceeds the {len(S)} budget"
        )

    def test_member_rejected(self, f11a_1k):
        candidates, _ = prime_sets(f11a_1k, 300)
        S = greedy_maximal(candidates, 1, f11a_1k)
        with pytest.raises(ValueError):
            repair(S.primes[0], S, f11a_1k)

    @pytest.mark.parametrize("p", [1, 4, 15, 289])
    def test_non_prime_rejected(self, f11a_1k, p):
        # the identity is defined for primes; 4 and 289 are no member of S either
        candidates, _ = prime_sets(f11a_1k, 300)
        S = greedy_maximal(candidates, 1, f11a_1k)
        with pytest.raises(ValueError, match=f"repair needs a prime p, got {p}"):
            repair(p, S, f11a_1k)

    def test_non_maximal_precondition_detected(self, f11a_1k):
        S = AdmissibleSet(1, (3, 5), "hash-collision", 5)
        with pytest.raises(InfeasibleError, match="maximality"):
            repair(13, S, f11a_1k)  # a(13) = 4 differs from a(3), a(5)


class TestCardinality:
    def test_example_values(self):
        report = cardinality_report(12, 10**4, 6)
        assert report.bound_value == pytest.approx(10 ** (4 * 11 / 12))
        assert report.ratio == pytest.approx(12 / 10 ** (4 * 11 / 12))
        assert report.lower_bound_met

    def test_lower_bound_flag(self):
        assert not cardinality_report(3, 100, 2).lower_bound_met

    @pytest.mark.parametrize("M, k, message", [(100, 0, "k must be >= 1, got 0"),
                                               (0, 1, "M must be >= 1, got 0")])
    def test_k_and_M_below_1_rejected(self, M, k, message):
        # both divided by zero
        with pytest.raises(ValueError, match=message):
            cardinality_report(12, M, k)

    def test_ratio_sweep_is_reported(self, f11a_1k):
        # trend across M: the report only records values, no monotonicity claim
        ratios = []
        for M in (100, 300, 1000):
            candidates, _ = prime_sets(f11a_1k, M)
            S = greedy_maximal(candidates, 1, f11a_1k)
            ratios.append(cardinality_report(S, M, 1).ratio)
        assert all(r > 0 for r in ratios)
