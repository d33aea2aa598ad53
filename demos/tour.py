#!/usr/bin/env python3
"""A narrative tour of the discriminant criteria and their witnesses.

Run as `python demos/tour.py`.  Everything printed here is recomputed on the
spot with exact integer arithmetic.
"""

from gmlattice import (
    GlueData,
    GramLattice,
    Sublattice,
    classify,
    counterexample_family,
    determinant,
    discriminant_group,
    find_hyperbolic_plane,
    glue,
    hilb2_witness,
    k3_witness,
    labelling_lattice,
    mukai_sign_reversed,
    negative_pell,
    orthogonal_complement,
    signature,
)
from gmlattice import intmat
from fractions import Fraction


def banner(title):
    print()
    print(f"== {title} ==")


banner("The ambient players")
M = mukai_sign_reversed()
print("sign-reversed Mukai lattice: rank", M.rank, "det", determinant(M), "sig", signature(M))
f1 = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(24))
f2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(24))
print("the two distinguished classes pair as diag(-2,-2):",
      (M.norm(f1), M.norm(f2), M.pairing(f1, f2)))
comp = orthogonal_complement(M, Sublattice(M, (f1, f2)))
G = comp.gram()
print("their complement is the vanishing lattice: rank", comp.rank,
      "det", determinant(G), "sig", signature(G))
print("discriminant group:", discriminant_group(G).group_name())

banner("Classifying discriminants")
for d in (10, 12, 50):
    rep = classify(d, with_witnesses=False)
    print(f"d={d}: K3 {rep.star2}, twisted {rep.star2_twisted}, "
          f"Hilbert-square {rep.star3.as_pair() if rep.star3 else None}")
print("d=50 separates the conditions: n^2 - 25 a^2 = (n-5a)(n+5a) factors")
print("over Z, so P_25(-1) is unsolvable:", negative_pell(25))

banner("A Hilbert-square witness for d = 10")
L, w = hilb2_witness(10)
print("normal-form labelling lattice:", L.gram)
print("w =", w, " w.w =", L.norm(w), " lambda1.w =", L.pairing((1, 0, 0), w))

banner("Hyperbolic planes inside labelling lattices")
for d in (10, 12):
    Ld = labelling_lattice(d)
    rep = k3_witness(Ld)
    if rep.found():
        v, u = rep.u_basis
        print(f"d={d}: found U = <{v}, {u}> (checks {Ld.norm(v)}, {Ld.norm(u)}, {Ld.pairing(v, u)})")
    else:
        print(f"d={d}: {rep.status} (U needs d/2 = X^2 + Y^2 with gcd(X, Y) = 1)")

banner("Gluing <2> and <-2> into the hyperbolic plane")
half = Fraction(1, 2)
glued = glue(GlueData(GramLattice(((2,),)), GramLattice(((-2,),)), (((half,), (half,)),)))
print("glued Gram:", glued.gram, " det:", determinant(glued))
# the basis T of a hyperbolic plane certifies U: det T = +-1 and T G T^t = U
T = find_hyperbolic_plane(glued, 1)
print("plane basis T:", T, " det T:", intmat.bareiss_det(T))
print("T G T^t:", intmat.mat_mul(intmat.mat_mul(T, glued.gram), intmat.transpose(T)))

banner("The counterexample family: U present, no K3 labelling")
rep = counterexample_family(2)
print("kappa classes span U:", rep.kappa_checks)
print("-Q/8 =", rep.form, " reduces to", rep.reduced_form, "with minimum 2,")
print("so no labelling disc ever escapes 0 (mod 8):", rep.all_discs_divisible_by_8)

banner("Hilbert square vs double EPW sextic")
for d in (2, 10, 26):
    dm = classify(d, with_witnesses=False).dm_isomorphic
    print(f"d={d}: isomorphic to a double EPW sextic: {dm}")
print("(d=26: P_13(-1) has (18,5) while 5 is a non-residue mod 13, so P_52(5) is empty)")
