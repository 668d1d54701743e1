"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared coefficient tables are session fixtures (built once; construction
times quoted in README); each criterion times its own checking work against
the stated limit.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 10 and 13 are implemented exactly as stated and are expected to
fail: the measured quantities genuinely fall outside the stated windows at
desk scale.  The benchmark records the evidence in every run (perfbench's
``criterion10_count_over_main_term`` and ``small_targets_ell_le_6`` fields);
the assertions are kept faithful rather than loosened.
"""

import random
import time

from newform_basis import (
    DELTA,
    FORM_11A,
    cf_bound,
    check_identities,
    dyadic_construction,
    expand_eta_product,
    first_negative,
    greedy_maximal,
    hecke_extend,
    hua_constants,
    hua_main_term,
    is_admissible,
    large_coeff_density,
    prime_sets,
    repair,
    singular_series,
    verify_decomposition,
)
from newform_basis.waring_goldbach import count_representations, find_solution

from conftest import naive_ordered_counts
from newform_basis.primes import primes_up_to


def report(number: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} ({elapsed:.2f}s/{limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"
    assert ok


def test_c01_hecke_identity_delta(delta_1m):
    t0 = time.perf_counter()
    bad = [
        p
        for p in primes_up_to(1000)
        if delta_1m.a(p) ** 2 - delta_1m.a(p * p) != p**11
    ]
    elapsed = time.perf_counter() - t0
    assert delta_1m.a(2) ** 2 == 576 and delta_1m.a(4) == -1472
    report(1, not bad, f"p<=1000 prime-square identity, violations={len(bad)} "
           "(table prebuilt in fixture)", elapsed, 10.0)


def test_c02_expansion_vs_hecke_oracle():
    t0 = time.perf_counter()
    agree = True
    for descriptor in (DELTA, FORM_11A):
        expanded = expand_eta_product(descriptor, 10**4)
        ap = {p: expanded.a(p) for p in expanded.primes()}
        rebuilt = hecke_extend(descriptor, ap, 10**4)
        agree &= all(rebuilt.a(n) == expanded.a(n) for n in range(1, 10**4 + 1))
    elapsed = time.perf_counter() - t0
    report(2, agree, "eta expansion == multiplicative rebuild, both forms, n<=1e4",
           elapsed, 30.0)


def test_c03_deligne_and_divisor_bounds(delta_100k):
    t0 = time.perf_counter()
    rep = check_identities(delta_100k)
    elapsed = time.perf_counter() - t0
    ok = not rep.deligne_violations and not rep.divisor_bound_violations
    report(3, ok, f"n<=1e5 size bounds, {rep.summary()} (table prebuilt in fixture)",
           elapsed, 60.0)


def test_c04_first_negative(delta_1k, f11a_1k):
    t0 = time.perf_counter()
    rd = first_negative(delta_1k)
    re_ = first_negative(f11a_1k)
    elapsed = time.perf_counter() - t0
    ok = rd.n_f == 2 and re_.n_f == 2 and abs(rd.bound_value - 144**0.375) < 1e-9
    report(4, ok, f"n_f(delta)={rd.n_f} n_f(11a)={re_.n_f} "
           f"bound={rd.bound_value:.3f} ratio={rd.ratio:.3f}", elapsed, 5.0)


def test_c05_density_stability(delta_100k):
    t0 = time.perf_counter()
    full = large_coeff_density(delta_100k, 10**5)
    half = large_coeff_density(delta_100k, 5 * 10**4)
    elapsed = time.perf_counter() - t0
    a_full, a_half = float(full.alpha_hat), float(half.alpha_hat)
    ok = 0.30 < a_full < 0.50 and abs(a_full - a_half) < 0.05
    report(5, ok, f"alpha(1e5)={a_full:.4f} alpha(5e4)={a_half:.4f} "
           "(Sato-Tate reference 0.391)", elapsed, 120.0)


def test_c06_admissibility_oracle_agreement(delta_1k, f11a_1k):
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    checked = 0
    ok = True
    for table in (delta_1k, f11a_1k):
        candidates, _ = prime_sets(table, 1000)
        for _ in range(100):
            k = rng.randint(1, 3)
            size = rng.randint(max(k, 2), 10)
            primes = rng.sample(candidates, size)
            hash_check = is_admissible(primes, k, table)
            brute_check = is_admissible(primes, k, table, method="brute-force")
            ok &= hash_check.ok == brute_check.ok
            checked += 1
    elapsed = time.perf_counter() - t0
    report(6, ok and checked == 200, f"{checked} random subsets, hash == brute force",
           elapsed, 60.0)


def test_c07_dyadic_construction(f11a_1k):
    t0 = time.perf_counter()
    S = dyadic_construction(f11a_1k, 1, 4)
    _, has_large = prime_sets(f11a_1k, 1000)
    chain = abs(f11a_1k.a(S.primes[0])) < abs(f11a_1k.a(S.primes[1]))
    ok = (
        len(S.primes) == 2
        and all(has_large(p) for p in S.primes)
        and chain
        and is_admissible(S.primes, 1, f11a_1k).ok
    )
    elapsed = time.perf_counter() - t0
    report(7, ok, f"k=1 l0=4 picks {S.primes}", elapsed, 5.0)


def test_c08_repair_every_excluded_prime(f11a_1k):
    t0 = time.perf_counter()
    candidates, _ = prime_sets(f11a_1k, 1000)
    S = greedy_maximal(candidates, 1, f11a_1k)
    members = set(S.primes)
    excluded = [p for p in candidates if p not in members]
    ok = bool(excluded)
    for p in excluded:
        ok &= repair(p, S, f11a_1k).verify(f11a_1k)
    elapsed = time.perf_counter() - t0
    report(8, ok, f"|S|={len(S)}, {len(excluded)} excluded primes all repaired",
           elapsed, 60.0)


def test_c09_wg_counts_and_ternary():
    t0 = time.perf_counter()
    primes = primes_up_to(500)
    ok = True
    for s, e in ((2, 1), (3, 1), (2, 3), (3, 3)):
        oracle = naive_ordered_counts(500, s, e, primes)
        for Z in range(1, 501):
            if count_representations(Z, s, e) != oracle[Z]:
                ok = False
    elapsed_counts = time.perf_counter() - t0
    assert elapsed_counts < 60.0
    t0 = time.perf_counter()
    for Z in range(9, 5001, 2):
        if find_solution(Z, 3, 1) is None:
            ok = False
    elapsed_ternary = time.perf_counter() - t0
    report(9, ok, f"counts vs oracle ({elapsed_counts:.2f}s) and odd Z in [9,5000] "
           "ternary solutions", elapsed_ternary, 60.0)


def test_c10_hua_main_term_tracking():
    t0 = time.perf_counter()
    ratios = {}
    for Z in (10**5, 3 * 10**5, 10**6):
        count = count_representations(Z, 8, 3)
        est = singular_series(Z, 8, 3, 1000)
        main = hua_main_term(Z, 8, 3, est)
        ratios[Z] = count / main if main else float("inf")
    elapsed = time.perf_counter() - t0
    ok = all(0.3 < r < 3.0 for r in ratios.values())
    detail = " ".join(f"ratio({Z})={r:.3f}" for Z, r in ratios.items())
    # Known-red criterion: Z = 1e5 and 1e6 lie in the residue class 1 mod 9,
    # and the first-order asymptotic misses by far at this height, even on the
    # tuples that avoid p = 3 (test_waring_goldbach's criterion-10 split;
    # perfbench's wg-mixed record holds the ratios in its
    # criterion10_count_over_main_term field).
    report(10, ok, detail, elapsed, 600.0)


def test_c11_hua_constants():
    t0 = time.perf_counter()
    ok = all(hua_constants(e).K == 2 for e in range(1, 22, 2))
    ok &= hua_constants(1).s0 == 2
    ok &= hua_constants(3).s0 == 8
    s0_11 = hua_constants(11).s0
    ok &= s0_11 == 1978
    # independent high-precision evaluation of the same expression
    import mpmath

    mpmath.mp.dps = 50
    e = mpmath.mpf(11)
    indep = int(mpmath.ceil(2 * e * e * (2 * mpmath.log(e) + mpmath.log(mpmath.log(e))
                                         + mpmath.mpf(5) / 2)))
    ok &= indep == s0_11
    elapsed = time.perf_counter() - t0
    report(11, ok, f"K=2 for odd e<=21, s0: 2/8/{s0_11} (independent check {indep})",
           elapsed, 5.0)


def test_c12_constructive_end_to_end(pipeline_11a, f11a_big):
    t0 = time.perf_counter()
    bound = cf_bound(f11a_big)
    rng = random.Random(20260810)
    targets = [rng.randint(10**5, 10**7) * rng.choice([1, -1]) for _ in range(20)]
    ok = bound.value == 13
    worst = 0
    for Z in targets:
        d = pipeline_11a.decompose(Z)
        rep = verify_decomposition(d, f11a_big)
        ok &= rep.ok and rep.delta == 0 and d.ell <= 13
        worst = max(worst, d.ell)
    elapsed = time.perf_counter() - t0
    test_c12_constructive_end_to_end.targets = targets
    report(12, ok, f"20 targets |Z| in [1e5,1e7], max ell={worst} <= C(f)=13 "
           "(table prebuilt in fixture)", elapsed, 300.0)


def test_c13_search_end_to_end(delta_searcher, delta_1k):
    t0 = time.perf_counter()
    ok = True
    max_ell = 0
    for Z in range(-100, 101):
        d = delta_searcher.decompose(Z, ell_max=74000)
        if d is None:
            ok = False
            continue
        rep = verify_decomposition(d, delta_1k)
        ok &= rep.delta == 0 and d.ell <= 74000
        max_ell = max(max_ell, d.ell)
    elapsed = time.perf_counter() - t0
    empirical_ok = max_ell <= 6
    # Known-red clause: the searcher brings only 40 of the 201 targets to
    # ell <= 6 over n <= 1e3 (tests/golden_search.json records every one);
    # perfbench's search-delta record counts the |Z| <= 25 ones in its
    # small_targets_ell_le_6 field.  The verified-decomposition and
    # 74000-bound clauses do hold.
    report(13, ok and empirical_ok,
           f"all Z in [-100,100] verified with ell<=74000 ({ok}), "
           f"max ell={max_ell} (empirical ell<=6 clause: {empirical_ok})",
           elapsed, 300.0)


def test_c14_negation_symmetry(pipeline_11a, f11a_big):
    t0 = time.perf_counter()
    targets = getattr(test_c12_constructive_end_to_end, "targets", None)
    if targets is None:
        rng = random.Random(20260810)
        targets = [rng.randint(10**5, 10**7) * rng.choice([1, -1]) for _ in range(20)]
    ok = True
    for Z in targets:
        d = pipeline_11a.decompose(-Z)
        rep = verify_decomposition(d, f11a_big)
        ok &= rep.ok and d.ell <= 13
    elapsed = time.perf_counter() - t0
    report(14, ok, "negated criterion-12 sample decomposes under the same bound",
           elapsed, 300.0)
