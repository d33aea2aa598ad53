"""Discriminant groups, isotropy checks, and lattice gluing."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from random import Random
import time

import pytest

from gmlattice import (
    GlueData,
    GramLattice,
    LatticeError,
    Sublattice,
    check_isotropic,
    determinant,
    direct_sum,
    discriminant_group,
    find_hyperbolic_plane,
    glue,
    glue_extension_check,
    mukai_sign_reversed,
    orthogonal_complement,
    standard_lattice,
    twist,
)
from gmlattice.discriminant import _subgroup_order, glue_with_basis
from gmlattice import intmat

H = Fraction(1, 2)


# Fraction reference for the integer arithmetic inside gmlattice.discriminant
def frac_pairing(gram, v, w) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            row = gram[i]
            total += vi * sum(Fraction(row[j]) * w[j] for j in range(len(w)) if w[j])
    return total


def mod2(x: Fraction) -> Fraction:
    return x - 2 * (x / 2).__floor__()


def mod1(x: Fraction) -> Fraction:
    return x - x.__floor__()


def random_even(rng, n, lo=-4, hi=4):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            if i == j:
                v = 2 * v
            g[i][j] = g[j][i] = v
    return GramLattice(tuple(tuple(r) for r in g))


def test_smith_normal_form_of_labelling_gram():
    D, U, V = intmat.smith_normal_form_full(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    assert [D[i][i] for i in range(3)] == [1, 1, 10]


def test_disc_group_of_lambda_classes():
    dg = discriminant_group(GramLattice(((-2, 0), (0, -2))))
    assert dg.invariant_factors == (2, 2)
    assert dg.qvalues == (Fraction(3, 2), Fraction(3, 2))
    assert dg.order == 4


def test_disc_group_unimodular_trivial():
    dg = discriminant_group(standard_lattice("U"))
    assert dg.is_trivial()
    assert dg.group_name() == "trivial"


def test_disc_group_rank_one():
    dg = discriminant_group(GramLattice(((2,),)))
    assert dg.invariant_factors == (2,)
    assert dg.qvalues == (H,)


def test_disc_group_requires_even_nondegenerate():
    with pytest.raises(LatticeError, match="degenerate lattice has no discriminant group"):
        discriminant_group(GramLattice(((0, 0), (0, 0))))
    with pytest.raises(LatticeError, match="even lattices"):
        discriminant_group(standard_lattice("I(2,0)"))


def test_disc_group_of_vanishing_lattice():
    # the rank-22 lattice E8^2 + U^2 + I(2,0)(2): d = (Z/2)^2 with q = (1/2, 1/2)
    dg = discriminant_group(standard_lattice("Lambda"))
    assert dg.invariant_factors == (2, 2)
    assert dg.qvalues == (Fraction(1, 2), Fraction(1, 2))


def test_rank24_mukai_is_unimodular_by_snf():
    from gmlattice.intmat import invariant_factors

    assert invariant_factors(mukai_sign_reversed().gram) == [1] * 24


def test_disc_group_order_equals_det_random():
    rng = Random(21)
    done = 0
    while done < 60:
        L = random_even(rng, rng.randint(1, 4))
        d = determinant(L)
        if d == 0:
            continue
        dg = discriminant_group(L)
        assert dg.order == abs(d)
        # generators really lie in the dual and have the stated orders
        for g, order in zip(dg.generators, dg.invariant_factors):
            for row in L.gram:
                val = sum(Fraction(a) * x for a, x in zip(row, g))
                assert val.denominator == 1
            scaled = tuple(order * x for x in g)
            assert all(x.denominator == 1 for x in scaled)
        done += 1


def test_exponents_of_lift_inverts_the_generators():
    # brute force: every class of d(L) is the coset sum(e_j g_j) + Z^n, so
    # keying the exponent tuples by that coset mod 1 must give |d(L)| keys,
    # and each lift sum(e_j g_j) + y (y in L) must read back as e
    rng = Random(23)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        L = random_even(rng, n)
        d = determinant(L)
        if d == 0 or abs(d) > 200:
            continue
        dg = discriminant_group(L)
        by_coset = {}
        for e in product(*(range(k) for k in dg.invariant_factors)):
            x = [sum(ej * g[i] for ej, g in zip(e, dg.generators)) for i in range(n)]
            by_coset[tuple(xi - xi.__floor__() for xi in map(Fraction, x))] = e
            y = [rng.randint(-5, 5) for _ in range(n)]
            assert dg.exponents_of_lift([xi + yi for xi, yi in zip(x, y)]) == e
        assert len(by_coset) == dg.order
        done += 1


def test_q_values_negate_under_twist():
    rng = Random(22)
    done = 0
    while done < 40:
        L = random_even(rng, rng.randint(1, 3))
        if determinant(L) == 0:
            continue
        dg = discriminant_group(L)
        Lneg = twist(L, -1)
        for g, q in zip(dg.generators, dg.qvalues):
            # evaluate q on the same lift in the twisted lattice
            val = sum(
                Fraction(Lneg.gram[i][j]) * g[i] * g[j]
                for i in range(L.rank)
                for j in range(L.rank)
            )
            val = val - 2 * (val / 2).__floor__()
            assert (val + q) % 2 == 0
        done += 1


def test_integer_paths_match_the_fraction_reference():
    # 200 random even nondegenerate L of rank 1-8: q and b of the generators,
    # exponents of their multiples, and the glue of L + L(-1) along the
    # diagonal of a random subgroup of d(L), whose index is that subgroup's
    # order and whose Gram is the reference pairing of the returned basis
    rng = Random(29)
    done = 0
    while done < 200:
        n = rng.randint(1, 8)
        L = random_even(rng, n)
        d = determinant(L)
        if d == 0:
            continue
        dg = discriminant_group(L)
        assert dg.order == abs(d)
        gens = dg.generators
        assert dg.qvalues == tuple(mod2(frac_pairing(L.gram, g, g)) for g in gens)
        assert dg.bmatrix == tuple(
            tuple(mod1(frac_pairing(L.gram, g, h)) for h in gens) for g in gens
        )
        pairs = []
        order = 1
        for j, (g, f) in enumerate(zip(gens, dg.invariant_factors)):
            m = rng.randint(0, f)
            e = tuple(m % f if i == j else 0 for i in range(len(gens)))
            assert dg.exponents_of_lift(tuple(m * x for x in g)) == e
            if rng.random() < 0.7:
                pairs.append((tuple(m * x for x in g), tuple(m * x for x in g)))
                order *= f // gcd(m, f)
        Lneg = twist(L, -1)
        out, basis, index = glue_with_basis(GlueData(L, Lneg, tuple(pairs)))
        big = direct_sum(L, Lneg).gram
        assert out.gram == tuple(tuple(frac_pairing(big, v, w) for w in basis) for v in basis)
        assert index == order
        assert determinant(out) * index**2 == d * determinant(Lneg)
        done += 1


# ---------------------------------------------------------------------------
# isotropy and glue


def test_isotropy_rejects_the_sum_class():
    # S = diag(-2,-2), K = <2>, H = <(1,1,1)>: q = 1/2 + 1/2 - 1/2 != 0
    g = GlueData(
        GramLattice(((-2, 0), (0, -2))),
        GramLattice(((2,),)),
        (((H, H), (H,)),),
    )
    assert check_isotropic(g) is False


def test_isotropy_of_opposite_forms():
    g = GlueData(GramLattice(((2,),)), GramLattice(((-2,),)), (((H,), (H,)),))
    assert check_isotropic(g) is True


def test_isotropy_needs_the_pairings_too():
    # in d(U(2)) = (Z/2)^2, e1/2 and e2/2 each have q = 0, but b = 1/2
    U2 = twist(standard_lattice("U"), 2)
    U = standard_lattice("U")
    first, second = ((H, 0), (0, 0)), ((0, H), (0, 0))
    assert check_isotropic(GlueData(U2, U, (first,)))
    assert check_isotropic(GlueData(U2, U, (second,)))
    assert not check_isotropic(GlueData(U2, U, (first, second)))


def test_isotropy_trivial_group():
    g = GlueData(GramLattice(((2,),)), GramLattice(((-2,),)), ())
    assert check_isotropic(g) is True


def test_malformed_lift_raises():
    g = GlueData(
        GramLattice(((2,),)), GramLattice(((-2,),)), (((Fraction(1, 3),), (H,)),)
    )
    with pytest.raises(LatticeError, match="lift is not in the dual lattice"):
        check_isotropic(g)
    dg = discriminant_group(GramLattice(((2,),)))
    with pytest.raises(LatticeError, match="lift is not in the dual lattice"):
        dg.exponents_of_lift((Fraction(1, 3),))
    assert dg.exponents_of_lift((Fraction(1, 2),)) == (1,)
    assert dg.exponents_of_lift((Fraction(0),)) == (0,)


def u_sum_basis(L):
    """Rows T of L with T G T^t = U + ... + U, or None: a hyperbolic plane
    of L, then one of its orthogonal complement read back in L's basis, and
    so on, each searched within |coords| <= 2."""
    rows = ()
    while len(rows) < L.rank:
        C = orthogonal_complement(L, Sublattice(L, rows))
        plane = find_hyperbolic_plane(C.gram(), 2)
        if plane is None:
            return None
        rows += tuple(intmat.mat_vec(intmat.transpose(C.basis), x) for x in plane)
    return rows


def certifies_u_sum(L, T) -> bool:
    """T is unimodular and T G T^t is exactly U + ... + U, recomputed."""
    uu = direct_sum(*[standard_lattice("U")] * (L.rank // 2))
    return (
        T is not None
        and abs(intmat.bareiss_det(T)) == 1
        and intmat.mat_mul(intmat.mat_mul(T, L.gram), intmat.transpose(T)) == uu.gram
    )


@pytest.mark.parametrize(
    "L, candidate",
    [
        (twist(standard_lattice("U"), 3), ((1, 0), (0, 1))),
        (GramLattice(((2, 0), (0, -2))), ((1, 1), (1, -1))),
        (direct_sum(standard_lattice("U"), twist(standard_lattice("U"), 3)), intmat.identity(4)),
        (
            GramLattice(((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))),
            ((1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1)),
        ),
    ],
    ids=["U(3)", "<2>+<-2>", "U+U(3)", "<2>^2+<-2>^2"],
)
def test_u_sum_certificate_rejects(L, candidate):
    # even, indefinite and of the right rank, but not unimodular: no plane
    # has a partner, and the nearest candidate basis fails the recomputation
    assert u_sum_basis(L) is None
    assert not certifies_u_sum(L, candidate)
    assert not certifies_u_sum(L, None)


def test_glue_diagonal_gives_u():
    g = GlueData(GramLattice(((2,),)), GramLattice(((-2,),)), (((H,), (H,)),))
    out = glue(g)
    assert determinant(out) == (2 * -2) // (2 * 2)
    T = find_hyperbolic_plane(out, 1)
    assert certifies_u_sum(out, T)


def test_glue_trivial_is_direct_sum():
    left = GramLattice(((2,),))
    right = GramLattice(((-4,),))
    g = GlueData(left, right, ())
    assert glue(g) == direct_sum(left, right)


def test_glue_obstruction():
    g = GlueData(
        GramLattice(((-2, 0), (0, -2))),
        GramLattice(((2,),)),
        (((H, H), (H,)),),
    )
    with pytest.raises(LatticeError, match="glue subgroup is not isotropic"):
        glue(g)


def test_glue_order_four_diagonal_gives_u():
    # <4> + <-4> glued along the diagonal Z/4 (q = 1/4 - 1/4 = 0) is an
    # even unimodular rank-2 indefinite lattice, i.e. U again
    q = Fraction(1, 4)
    g = GlueData(GramLattice(((4,),)), GramLattice(((-4,),)), (((q,), (q,)),))
    assert check_isotropic(g)
    out, _, index = glue_with_basis(g)
    assert index == 4
    assert determinant(out) == -1
    T = find_hyperbolic_plane(out, 1)
    assert certifies_u_sum(out, T)


def test_glue_two_generators_gives_u_plus_u():
    # two diagonal order-2 glues at once: <2>^2 + <-2>^2 becomes the even
    # unimodular lattice of signature (2,2), which is U + U
    left = GramLattice(((2, 0), (0, 2)))
    right = GramLattice(((-2, 0), (0, -2)))
    H = Fraction(1, 2)
    g = GlueData(left, right, (((H, 0), (H, 0)), ((0, H), (0, H))))
    assert check_isotropic(g)
    out, _, index = glue_with_basis(g)
    assert index == 4
    assert determinant(out) == 1
    assert out.is_even()
    U = standard_lattice("U")
    uu = direct_sum(U, U)
    from gmlattice import signature

    assert signature(out) == signature(uu) == (2, 2, 0)
    T = u_sum_basis(out)
    assert certifies_u_sum(out, T)


def test_glue_determinant_law_random():
    rng = Random(23)
    done = 0
    while done < 25:
        left = random_even(rng, rng.randint(1, 2))
        right = random_even(rng, rng.randint(1, 2))
        if determinant(left) == 0 or determinant(right) == 0:
            continue
        dl = discriminant_group(left)
        dr = discriminant_group(right)
        # try gluing along a pair of order-2 classes when both sides have one
        gl = [g for g, f in zip(dl.generators, dl.invariant_factors) if f % 2 == 0]
        gr = [g for g, f in zip(dr.generators, dr.invariant_factors) if f % 2 == 0]
        if not gl or not gr:
            continue
        half_l = tuple(x * (dl.invariant_factors[0] // 2) for x in gl[0])
        half_r = tuple(x * (dr.invariant_factors[0] // 2) for x in gr[0])
        g = GlueData(left, right, ((half_l, half_r),))
        if not check_isotropic(g):
            continue
        out, _, index = glue_with_basis(g)
        assert determinant(out) * index**2 == determinant(left) * determinant(right)
        done += 1


# ---------------------------------------------------------------------------
# extension checks


def test_extension_check_in_u():
    U = standard_lattice("U")
    S = Sublattice(U, ((1, 1),))
    K = Sublattice(U, ((1, -1),))
    rep = glue_extension_check(S, K)
    assert rep.glue_order == 2
    assert rep.isotropic
    assert rep.quotient_identity_holds
    assert rep.det_law_holds
    assert rep.gen_qvalues == (Fraction(0),)


def test_extension_check_trivial_split():
    L = direct_sum(GramLattice(((2,),)), GramLattice(((-2,),)))
    rep = glue_extension_check(Sublattice(L, ((1, 0),)), Sublattice(L, ((0, 1),)))
    assert rep.glue_order == 1
    assert rep.quotient_identity_holds


def test_extension_check_mukai():
    M = mukai_sign_reversed()
    f1 = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(24))
    f2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(24))
    K = Sublattice(M, (f1, f2))
    S = orthogonal_complement(M, K)
    rep = glue_extension_check(S, K)
    assert rep.glue_order == 4
    assert rep.disc_order_ambient == 1
    assert rep.isotropic
    assert rep.quotient_identity_holds
    assert rep.det_law_holds


def test_glue_then_recover_round_trip():
    # glue <2> + <-2> along the diagonal, then locate the two rank-one
    # sublattices inside the overlattice and recover the same glue group
    left = GramLattice(((2,),))
    right = GramLattice(((-2,),))
    g = GlueData(left, right, (((H,), (H,)),))
    out, basis, index = glue_with_basis(g)
    assert index == 2
    # old basis vectors in new coordinates: solve x = y * basis
    bt = intmat.to_matrix(
        tuple(tuple(int(x * 2) for x in row) for row in basis)
    )  # scaled by 2 to clear halves
    # e1 = (1, 0), e2 = (0, 1) in old coords; coordinates w.r.t. new basis
    # by Cramer's rule on A x = old with A = bt^T
    A = intmat.transpose(bt)
    det_a = intmat.bareiss_det(A)
    coords = []
    for old in ((2, 0), (0, 2)):  # scaled old vectors
        sol = [
            Fraction(
                intmat.bareiss_det(
                    tuple(tuple(old[i] if k == j else A[i][k] for k in range(2)) for i in range(2))
                ),
                det_a,
            )
            for j in range(2)
        ]
        coords.append(tuple(int(c) for c in sol))
    Ssub = Sublattice(out, (coords[0],))
    Ksub = Sublattice(out, (coords[1],))
    rep = glue_extension_check(Ssub, Ksub)
    assert rep.glue_invariant_factors == (2,)
    assert rep.isotropic
    assert all(q == 0 for q in rep.gen_qvalues)
    assert rep.det_law_holds


def test_extension_check_random_orthogonal_pairs():
    # K spanned by random vectors of a small even lattice L, S = K-perp:
    # L is an overlattice of S + K, so every coset lift lies in L, the lift
    # orders multiply to [L : S + K], and Nikulin's identities hold
    rng = Random(61)
    checked = enumerated = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        L = random_even(rng, n, -3, 3)
        vecs = tuple(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 1))
        )
        try:
            K = Sublattice(L, vecs)
            S = orthogonal_complement(L, K)
            rep = glue_extension_check(S, K)
        except LatticeError:  # dependent vectors, degenerate L, S or K
            continue
        order = 1
        for (alpha, beta), d in zip(rep.gen_lifts, rep.glue_invariant_factors):
            v = [
                sum(a * row[j] for a, row in zip(alpha + beta, S.basis + K.basis))
                for j in range(n)
            ]
            assert all(x.denominator == 1 for x in v)
            m = lcm(*(x.denominator for x in alpha + beta))
            assert m == d
            order *= m
        assert order == rep.glue_order
        assert rep.isotropic
        assert rep.det_law_holds
        assert rep.quotient_identity_holds
        assert rep.disc_order_ambient == discriminant_group(L).order
        checked += 1
        if abs(determinant(S.gram()) * determinant(K.gram())) > 1000:
            continue  # keep the enumeration of d(S) + d(K) short
        # |H_perp| and |H| against enumerating d(S) + d(K) with Fraction sums
        ds, dk = discriminant_group(S.gram()), discriminant_group(K.gram())
        gens = [g + (0,) * K.rank for g in ds.generators]
        gens += [(0,) * S.rank + g for g in dk.generators]
        glue_vectors = [alpha + beta for alpha, beta in rep.gen_lifts]
        SK = direct_sum(S.gram(), K.gram()).gram
        hperp = 0
        for x in product(*(range(f) for f in ds.invariant_factors + dk.invariant_factors)):
            y = [sum(xi * g[j] for xi, g in zip(x, gens)) for j in range(n)]
            hperp += all(mod1(frac_pairing(SK, y, v)) == 0 for v in glue_vectors)
        h_order = len({
            tuple(mod1(sum(c * v[j] for c, v in zip(cs, glue_vectors))) for j in range(n))
            for cs in product(*(range(f) for f in rep.glue_invariant_factors))
        })
        assert hperp == rep.hperp_mod_h_order * h_order
        enumerated += 1
    assert checked >= 300
    assert enumerated >= 100


@pytest.mark.parametrize("t", [200, 10**6])
def test_extension_check_of_a_large_discriminant_sum_finishes_within_budget(t):
    # U + U with S = <(1, t, 0, 0)> and K = S-perp: d(S) + d(K) has order
    # 2t * 2t, glued along H of order 2t; at t = 10^6 that is 4 * 10^12
    U = standard_lattice("U")
    L = direct_sum(U, U)
    S = Sublattice(L, ((1, t, 0, 0),))
    K = orthogonal_complement(L, S)
    total = discriminant_group(S.gram()).order * discriminant_group(K.gram()).order
    assert total == 4 * t * t
    start = time.perf_counter()
    rep = glue_extension_check(S, K)
    assert time.perf_counter() - start < 1.0
    assert rep.glue_order == 2 * t
    assert rep.isotropic
    assert rep.disc_order_ambient == 1
    assert rep.hperp_mod_h_order == 1
    assert rep.quotient_identity_holds
    assert rep.det_law_holds


def walk_subgroup_order(gens, moduli) -> int:
    """Reference: order of the subgroup of the sum of the Z/m generated by
    gens, by walking it one element at a time."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + x) % m for c, x, m in zip(cur, g, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def test_subgroup_order_matches_the_walk():
    rng = Random(13)
    for _ in range(3000):
        moduli = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        gens = [
            tuple(rng.randint(-30, 30) for _ in moduli) for _ in range(rng.randint(0, 4))
        ]
        assert _subgroup_order(gens, moduli) == walk_subgroup_order(gens, moduli)
    assert _subgroup_order([], ()) == 1
    assert _subgroup_order([(), ()], ()) == 1
    assert _subgroup_order([], (1, 6)) == 1
    assert _subgroup_order([(1, 1)], (1, 6)) == 6
    assert _subgroup_order([(2, 3)], (4, 6)) == 2


def test_extension_check_rejects_non_orthogonal():
    U = standard_lattice("U")
    with pytest.raises(LatticeError, match="orthogonal"):
        glue_extension_check(Sublattice(U, ((1, 0),)), Sublattice(U, ((0, 1),)))
