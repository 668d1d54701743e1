"""Build exact coefficient tables for the two builtin forms and check them.

Both builtins are eta products, so the whole q-expansion comes from sparse
series: Jacobi's identity for each cube of eta, Euler's pentagonal series
for what is left, and one sparse-by-sparse product.  The level-11 form then
takes two exact int64 passes; the weight-12 form squares eta^6 twice by FFT
products of balanced digits, each checked to round to an exact integer.
The interesting part is that the same table can be rebuilt from its prime
entries alone by the Hecke relation, which gives a free cross-check of every
composite index.
"""

from newform_basis import (
    DELTA,
    FORM_11A,
    check_identities,
    expand_eta_product,
    hecke_extend,
)

N = 5000

for descriptor, name in ((DELTA, "weight 12, level 1"), (FORM_11A, "weight 2, level 11")):
    table = expand_eta_product(descriptor, N)
    print(f"== {name} ==")
    print("a(1..12):", [table.a(n) for n in range(1, 13)])

    # independent reconstruction from primes only
    ap = {p: table.a(p) for p in table.primes()}
    rebuilt = hecke_extend(descriptor, ap, N)
    agree = all(rebuilt.a(n) == table.a(n) for n in range(1, N + 1))
    print(f"multiplicative rebuild agrees on all n <= {N}: {agree}")

    report = check_identities(table)
    print("identity scan:", report.summary())

    # evaluation beyond the table via factorization
    q = max(p for p in table.primes())
    beyond = table.value_at(q * q)
    print(f"a({q}^2) via the prime-square identity: {beyond}")
    print()
