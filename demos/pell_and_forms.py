#!/usr/bin/env python3
"""Why some discriminants admit a Hilbert square and others do not.

The Pell layer in isolation: continued fractions, fundamental solutions,
and the binary-form arithmetic behind the rank-4 analysis.
Run as `python demos/pell_and_forms.py`.
"""

from gmlattice import (
    BinaryForm,
    cf_sqrt,
    find_prime_1mod4,
    negative_pell,
    pell_general,
    qform_rank4,
    reduce_form,
    represents,
)

print("Continued fractions of sqrt(m) and the negative Pell equation")
print("(solvable exactly when the period length is odd):")
for m in (2, 5, 7, 13, 25, 1621):
    try:
        a0, period = cf_sqrt(m)
        sol = negative_pell(m)
        tail = f"fundamental (n, a) = ({sol.n}, {sol.a})" if sol else "unsolvable"
        if sol and sol.n > 10**6:
            tail = f"fundamental n has {len(str(sol.n))} digits"
        print(f"  sqrt({m}) = [{a0}; {period}]  period {len(period)}: {tail}")
    except Exception:
        print(f"  sqrt({m}) is an integer: unsolvable unless m = 1")

print()
print("The Hilbert-square condition a^2 d = 2n^2 + 2 for small admissible d:")
for d in (2, 4, 10, 12, 20, 26, 50):
    sol = negative_pell(d // 2)
    print(f"  d={d}: {sol.as_pair() if sol else 'no'}")

print()
print("Beyond birationality: isomorphism to the double EPW sextic also")
print("requires n^2 - 2d a^2 = 5 to be unsolvable.")
for d in (2, 10, 26):
    sols = [s.as_pair() for s in pell_general(2 * d, 5)]
    print(f"  P_{2*d}(5): {sols if sols else 'empty'}")

print()
print("Binary forms from the rank-4 analysis:")
qa = qform_rank4(2, 1, -1, 1)
print(f"  pairings (2,1,-1,1): Q = {qa.h} * ({qa.q}), content h = {qa.h}")
p, x, y = find_prime_1mod4(qa.q)
print(f"  q represents the prime {p} (witness {(x, y)})")
f = BinaryForm(2, 5, 5)
g, T = reduce_form(f)
print(f"  reduction: {f} -> {g} via T = {T}")
print(f"  {g} represents 1: {represents(g, 1)} (so the family at n = 2 avoids the norm-8 divisor)")
