"""Representations of integers as sums of prime powers.

Counts are exact ordered-tuple counts that meet in the middle: the
ceil(s/2)- and floor(s/2)-term layers are joined by one dot product, and a
layer is kept as its distinct sums built from pair sums (eight cubes: a few
thousand sums, not 10^6 cells) until a pair list would outgrow a dense layer
of Z + 1 cells (ternary Goldbach: at once).  The truncated singular series
and its main-term companion show how strongly the arithmetic of Z (here: its
class mod 9, for cubes) modulates the solution count.  The solver finds one
explicit representation.
"""

from newform_basis import count_representations, find_solution, hua_constants, hua_main_term, singular_series

print("local constants:")
for e in (1, 2, 3, 11):
    h = hua_constants(e)
    print(f"  e={e:>2}: K={h.K:>3}  s0={h.s0}")
print()

print("ternary sums of primes:")
for Z in (101, 1001, 9999):
    count = count_representations(Z, 3, 1)
    sol = find_solution(Z, 3, 1)
    print(f"  Z={Z}: {count} ordered solutions, e.g. {sol.primes if sol else None}")
print()

print("eight prime cubes, even targets (note the swings with Z mod 9):")
for Z in (300000, 600000, 10**6):
    count = count_representations(Z, 8, 3)
    est = singular_series(Z, 8, 3, 1000)
    main = hua_main_term(Z, 8, 3, est)
    print(f"  Z={Z} (mod 9 = {Z % 9}): count={count}, singular series={est.value:.4f}, "
          f"main term={main:.0f}")
