"""Every tuning value of these entry points is a module or class constant, so
each takes exactly the parameters a caller outside the tests sets.  A removed
parameter cannot come back unnoticed."""

import inspect

import pytest

import newform_basis as nb
from newform_basis import admissible, coefficients, decomposer, primes, waring_goldbach


def parameters(fn) -> list[str]:
    """Parameter names in order, with "*" before the keyword-only ones."""
    names = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in names:
            names.append("*")
        names.append(p.name)
    return names


@pytest.mark.parametrize("fn, expected", [
    (nb.count_representations, ["Z", "s", "e", "*", "allowed"]),
    (nb.find_solution, ["Z", "s", "e", "*", "allowed"]),
    (waring_goldbach._allowed_powers, ["Z", "e", "allowed"]),
    (nb.singular_series, ["Z", "s", "e", "q_max"]),
    (nb.is_admissible, ["primes", "k", "table", "method"]),
    (nb.greedy_maximal, ["candidates", "k", "table", "size_target"]),
    (nb.repair, ["p", "S", "table"]),
    (admissible._SubsetSums, ["k"]),
    (nb.SearchDecomposer, ["table"]),
    (nb.SearchDecomposer.decompose, ["self", "Z", "ell_max"]),
    (nb.ConstructivePipeline, ["table", "s"]),
    (nb.check_identities, ["table"]),
    (coefficients._spot_check, ["table"]),
    (primes.prime_array, ["limit"]),
    (coefficients._eta_values, ["factors", "n_max"]),
    (coefficients._shift_pass, ["cur", "out", "series"]),
    (decomposer._multiset_sums, ["vals", "h"]),
    (decomposer._probe, ["firsts", "sums2", "Z", "width"]),
    (nb.hecke_extend, ["descriptor", "prime_coeffs", "n_max"]),
    (waring_goldbach._pair_sums, ["keys", "T", "w", "Z"]),
    (primes.spf_blocks, ["spf"]),
    (primes.divisor_counts, ["spf"]),
    (coefficients._product, ["x", "y", "n", "w"]),
    (decomposer._self_meet, ["sums", "firsts", "Z"]),
    (decomposer.SearchDecomposer._first, ["self", "s", "r", "K", "start"]),
    (waring_goldbach._exact_dot, ["x", "y"]),
    (decomposer.SearchDecomposer._rows, ["self", "h1", "h2", "Z", "width"]),
], ids=lambda v: getattr(v, "__qualname__", None))
def test_entry_point_parameters(fn, expected):
    assert parameters(fn) == expected


def test_one_shot_decompose_wrappers_are_gone():
    for name in ("decompose_search", "decompose_constructive"):
        assert not hasattr(nb, name) and name not in nb.__all__
        assert not hasattr(nb.decomposer, name)


def test_residue_tier_is_gone():
    # no modulus, CRT lift or prime search is left, no limb carry before a pass
    # and no 32-bit limb format: delta squares digit series by FFT products, the
    # level-11 passes fit one int64 limb
    for name in ("_moduli_for", "_crt_values", "_MODULUS_POOL", "_exact_headroom",
                 "_carry", "_HEADROOM", "_LIMB_BITS", "_LIMB_MASK"):
        assert not hasattr(coefficients, name)
    assert not hasattr(primes, "next_prime_below")
    assert not hasattr(nb, "next_prime_below") and "next_prime_below" not in nb.__all__


def test_square_is_gone():
    # delta's squarings and the dense count layers share one exact FFT product,
    # and a count holds every layer as its support
    assert not hasattr(coefficients, "_square")


def test_self_splits_is_gone():
    # a self-join keeps only its lower-half splits, so nothing mirrors them
    assert not hasattr(decomposer, "_self_splits")


def test_search_pool_method_is_gone():
    # the searcher fixes the pool size of every half depth at construction
    assert not hasattr(decomposer.SearchDecomposer, "_pool")


def test_shift_index_is_gone():
    # the constructive shift reads the positive records and raises InfeasibleError itself
    assert not hasattr(decomposer.ConstructivePipeline, "_shift_index")


def test_sampled_pairs_are_gone():
    # check_identities checks the Hecke relation at every composite, not at sampled pairs
    assert not hasattr(coefficients, "_coprime_sample_pairs")
