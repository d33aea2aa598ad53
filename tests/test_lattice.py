"""Lattice construction, invariants, sublattices and bounded searches."""

from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlattice import (
    DomainError,
    GramLattice,
    LatticeError,
    Sublattice,
    determinant,
    direct_sum,
    find_hyperbolic_plane,
    format_gram_text,
    hyperbolic_partner,
    mukai_sign_reversed,
    orthogonal_complement,
    parse_gram_text,
    saturate,
    signature,
    standard_lattice,
    twist,
)
from gmlattice import intmat
from gmlattice.lattice import HYPERBOLIC_BOX_MAX, _norm_solutions


def random_symmetric(rng, n, lo=-5, hi=5):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(lo, hi)
    return GramLattice(tuple(tuple(row) for row in g))


# ---------------------------------------------------------------------------
# construction and standard lattices


def test_standard_u():
    U = standard_lattice("U")
    assert U.gram == ((0, 1), (1, 0))
    assert determinant(U) == -1
    assert signature(U) == (1, 1, 0)


def test_standard_i20_twisted():
    L = twist(standard_lattice("I(2,0)"), 2)
    assert L.gram == ((2, 0), (0, 2))


def test_standard_e8():
    E8 = standard_lattice("E8")
    assert determinant(E8) == 1
    assert signature(E8) == (8, 0, 0)
    assert E8.is_even()


def test_standard_lambda():
    # det = det(E8)^2 * det(U)^2 * det(diag(2,2)) = 1 * 1 * 4
    L = standard_lattice("Lambda")
    assert L.rank == 22
    assert determinant(L) == 4
    assert L.is_even()
    assert signature(L) == (20, 2, 0)


def test_standard_lambda_tilde():
    L = standard_lattice("LambdaTilde")
    assert L.rank == 24
    assert determinant(L) == 1
    assert signature(L) == (4, 20, 0)
    M = mukai_sign_reversed()
    assert determinant(M) == 1
    assert signature(M) == (20, 4, 0)
    assert M.is_even()
    # U(-1) = U, blockwise: the plane's basis T is unimodular with T G T^t = U
    u_neg = twist(standard_lattice("U"), -1)
    T = find_hyperbolic_plane(u_neg, 1)
    assert abs(intmat.bareiss_det(T)) == 1
    assert intmat.mat_mul(intmat.mat_mul(T, u_neg.gram), intmat.transpose(T)) == ((0, 1), (1, 0))


def test_invalid_twist():
    with pytest.raises(DomainError, match="twist by 0 is not a lattice"):
        twist(standard_lattice("U"), 0)


def test_unknown_name_and_asymmetry():
    with pytest.raises(LatticeError):
        standard_lattice("F4")
    with pytest.raises(LatticeError):
        GramLattice(((1, 2), (3, 4)))
    with pytest.raises(LatticeError):
        GramLattice(((1, 2, 3), (4, 5, 6)))


# ---------------------------------------------------------------------------
# determinant and signature


def test_determinant_normal_form_families():
    for k in range(-3, 9):
        assert determinant(GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2 * k)))) == 2 + 8 * k
        assert determinant(GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 2 * k)))) == 4 + 8 * k


def test_determinant_isotropic_labelling():
    rng = Random(7)
    for _ in range(100):
        x, y = rng.randint(-30, 30), rng.randint(-30, 30)
        L = GramLattice(((-2, 0, x), (0, -2, y), (x, y, 0)))
        assert determinant(L) == 2 * x * x + 2 * y * y


def test_determinant_and_signature_with_huge_entries():
    big = 10**40
    L = GramLattice(((2 * big, 1), (1, -2 * big)))
    assert determinant(L) == -4 * big * big - 1
    assert signature(L) == (1, 1, 0)


def test_signature_examples():
    assert signature(standard_lattice("U")) == (1, 1, 0)
    assert signature(GramLattice(((-2, 0), (0, -2)))) == (0, 2, 0)
    assert signature(GramLattice(((0, 0), (0, 0)))) == (0, 0, 2)
    assert signature(GramLattice(((2, 0, 0), (0, -2, 0), (0, 0, 0)))) == (1, 1, 1)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(-6, 6).filter(lambda m: m != 0), st.data())
def test_twist_determinant_law(n, m, data):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = data.draw(st.integers(-5, 5))
    L = GramLattice(tuple(tuple(r) for r in g))
    assert determinant(twist(L, m)) == m ** n * determinant(L)


def signature_by_diagonalization(g):
    """Independent inertia computation: symmetric Gaussian reduction over Q
    with congruent transformations (the zero-pivot case mixes rows/cols)."""
    from fractions import Fraction

    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    pos = neg = 0
    idx = 0
    while idx < n:
        p = None
        for i in range(idx, n):
            if a[i][i] != 0:
                p = i
                break
        if p is None:
            found = None
            for i in range(idx, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break
            i, j = found
            for r in range(n):
                a[i][r] += a[j][r]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        if p != idx:
            a[p], a[idx] = a[idx], a[p]
            for r in range(n):
                a[r][p], a[r][idx] = a[r][idx], a[r][p]
        d = a[idx][idx]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(idx + 1, n):
            f = a[i][idx] / d
            if f:
                for r in range(n):
                    a[i][r] -= f * a[idx][r]
                for r in range(n):
                    a[r][i] -= f * a[r][idx]
        idx += 1
    return pos, neg, n - pos - neg


def test_signature_matches_diagonalization_oracle():
    rng = Random(13)
    for _ in range(120):
        L = random_symmetric(rng, rng.randint(1, 5), -7, 7)
        assert signature(L) == signature_by_diagonalization(L.gram), L.gram
    # rank-deficient products B^T D B, so the elimination stops on a zero
    # active block, and sparse zero-diagonal Grams, so it has to apply
    # e_i <- e_i + e_j before it finds a pivot
    for _ in range(300):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        D = [rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(k)]
        g = tuple(
            tuple(sum(B[t][i] * D[t] * B[t][j] for t in range(k)) for j in range(n))
            for i in range(n)
        )
        assert signature(GramLattice(g)) == signature_by_diagonalization(g), g
    for _ in range(300):
        n = rng.randint(2, 6)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    g[i][j] = g[j][i] = rng.randint(-4, 4)
        g = tuple(tuple(row) for row in g)
        assert signature(GramLattice(g)) == signature_by_diagonalization(g), g


def test_signature_additive_on_direct_sums():
    rng = Random(8)
    for _ in range(30):
        a = random_symmetric(rng, rng.randint(1, 3))
        b = random_symmetric(rng, rng.randint(1, 3))
        pa, na, za = signature(a)
        pb, nb, zb = signature(b)
        assert signature(direct_sum(a, b)) == (pa + pb, na + nb, za + zb)


def test_signature_and_determinant_by_blocks_match_whole_elimination():
    # symmetrically shuffled orthogonal sums of rank up to 24: each summand
    # is a random symmetric block, a rank-deficient B^T D B, a
    # zero-diagonal block that needs e_i <- e_i + e_j, a null 1x1, or one
    # with entries past 10^100
    rng = Random(31)
    split = 0
    for t in range(150):
        rank, target, summands = 0, rng.randint(4, 24), []
        while rank < target:
            k = rng.randint(1, min(5, target - rank))
            kind = rng.randrange(5)
            if kind == 0:
                g = random_symmetric(rng, k).gram
            elif kind == 1:
                r = rng.randint(0, k)
                B = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
                D = [rng.choice((-2, -1, 1, 2)) for _ in range(r)]
                g = tuple(tuple(sum(B[s][i] * D[s] * B[s][j] for s in range(r)) for j in range(k)) for i in range(k))
            elif kind == 2:
                g = [[0] * k for _ in range(k)]
                for i in range(k):
                    for j in range(i + 1, k):
                        g[i][j] = g[j][i] = rng.choice((0, 1, -1, 3))
            elif kind == 3:
                k, g = 1, ((0,),)
            else:
                g = random_symmetric(rng, k, -(10**110), 10**110).gram
            summands.append(GramLattice(g))
            rank += k
        total = direct_sum(*summands)
        order = rng.sample(range(total.rank), total.rank)
        L = GramLattice(tuple(tuple(total.gram[i][j] for j in order) for i in order))
        split += L.rank >= intmat._SPLIT_MIN
        sig = signature(L)
        assert sig == intmat._inertia(L.gram) == tuple(map(sum, zip(*(signature_by_diagonalization(S.gram) for S in summands))))
        if t % 3 == 0:
            assert sig == signature_by_diagonalization(L.gram)
        r, pivot = intmat._bareiss(L.gram)
        assert determinant(L) == (pivot if r == L.rank else 0)
    assert split > 50, split


# ---------------------------------------------------------------------------
# sublattices: complement and saturation


def test_complement_in_d10_labelling():
    L = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    S = Sublattice(L, ((1, 1, 1), (0, 1, 1)))
    # S spans a hyperbolic plane
    assert L.norm((1, 1, 1)) == 0
    assert L.norm((0, 1, 1)) == 0
    assert L.pairing((1, 1, 1), (0, 1, 1)) == 1
    C = orthogonal_complement(L, S)
    assert C.basis == ((2, 5, 4),)
    assert L.norm((2, 5, 4)) == -10


def test_complement_of_isotropic_line():
    U = standard_lattice("U")
    S = Sublattice(U, ((1, 0),))
    C = orthogonal_complement(U, S)
    assert C.basis == ((1, 0),)


def test_complement_of_mukai_embedding():
    M = mukai_sign_reversed()
    f1 = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(24))
    f2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(24))
    assert M.norm(f1) == -2 and M.norm(f2) == -2 and M.pairing(f1, f2) == 0
    C = orthogonal_complement(M, Sublattice(M, (f1, f2)))
    G = C.gram()
    assert C.rank == 22
    assert determinant(G) == 4
    assert G.is_even()
    assert signature(G) == (20, 2, 0)


def test_saturate_examples():
    I2 = standard_lattice("I(2,0)")
    S = Sublattice(I2, ((2, 0), (0, 1)))
    sat, idx = saturate(I2, S)
    assert idx == 2
    assert sat.basis == ((1, 0), (0, 1))
    # already primitive: index 1, unchanged module
    P = Sublattice(I2, ((1, 3),))
    sat2, idx2 = saturate(I2, P)
    assert idx2 == 1 and sat2.is_primitive()


def test_saturation_determinant_law_random():
    # det(S) = index^2 * det(saturation) on 100 random rank-3 span choices
    rng = Random(9)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 4)
        L = random_symmetric(rng, n)
        rows = tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3)
        )
        if intmat.rank(rows) != 3:
            continue
        S = Sublattice(L, rows)
        sat, idx = saturate(L, S)
        assert determinant(S.gram()) == idx * idx * determinant(sat.gram())
        assert sat.is_primitive()
        sat2, idx2 = saturate(L, sat)
        assert idx2 == 1 and sat2.basis == sat.basis
        checked += 1


def test_saturate_contains_s_and_has_the_smith_index():
    # the saturation contains S, is primitive, has the rank of S, and
    # [sat : S] is the product of the invariant factors of S.basis
    rng = Random(10)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 5)
        L = random_symmetric(rng, n)
        k = rng.randint(1, n)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
        if intmat.rank(rows) != k:
            continue
        sat, idx = saturate(L, Sublattice(L, rows))
        assert sat.rank == k and sat.is_primitive()
        # each row of S lies in the row module of sat
        assert all(
            intmat.hermite_row_basis(sat.basis + (v,)) == sat.basis for v in rows
        )
        product_of_factors = 1
        for f in intmat.invariant_factors(rows):
            product_of_factors *= f
        assert idx == product_of_factors
        # the index of S in sat, from the coordinates of S on sat's basis
        coords = intmat.mat_mul(rows, intmat.transpose(sat.basis))
        gram_sat = intmat.mat_mul(sat.basis, intmat.transpose(sat.basis))
        assert abs(intmat.bareiss_det(coords)) == idx * abs(intmat.bareiss_det(gram_sat))
        checked += 1


def test_primitive_complement_index_law():
    # det(S) * det(S_perp) = det(L) * [L : S + S_perp]^2
    rng = Random(10)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        L = random_symmetric(rng, n)
        if determinant(L) == 0:
            continue
        k = rng.randint(1, n - 1)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
        if intmat.rank(rows) != k:
            continue
        S, _ = saturate(L, Sublattice(L, rows))
        if determinant(S.gram()) == 0:
            continue
        C = orthogonal_complement(L, S)
        stacked = tuple(S.basis) + tuple(C.basis)
        index = 1
        for f in intmat.invariant_factors(stacked):
            index *= f
        assert determinant(S.gram()) * determinant(C.gram()) == determinant(L) * index * index
        checked += 1


# ---------------------------------------------------------------------------
# vector enumeration


def oracle_enumerate(L, target, bound):
    """Independent plain nested-loop scan."""
    from itertools import product

    out = []
    for v in product(range(-bound, bound + 1), repeat=L.rank):
        if L.norm(v) == target:
            out.append(v)
    return out


def box_vectors(L, target, bound):
    """Every vector of norm target with |coords| <= bound, lexicographically."""
    return list(_norm_solutions(L.gram, target, [bound] * L.rank))


def test_enumerate_u_isotropic():
    got = box_vectors(standard_lattice("U"), 0, 1)
    assert got == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_enumerate_d12_has_no_isotropic():
    L = GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 2)))
    assert box_vectors(L, 0, 30) == [(0, 0, 0)]


def test_enumerate_d10_isotropic_includes_111():
    L = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    vecs = box_vectors(L, 0, 2)
    assert (1, 1, 1) in vecs
    assert L.norm((1, 1, 1)) == 0


def test_enumerate_edge_ranks():
    one = GramLattice(((2,),))
    assert box_vectors(one, 8, 3) == [(-2,), (2,)]
    assert box_vectors(one, 3, 3) == []
    zero = GramLattice(())
    assert box_vectors(zero, 0, 1) == [()]
    assert box_vectors(zero, 1, 1) == []


def test_enumerate_matches_oracle_on_random_instances():
    rng = Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        L = random_symmetric(rng, n, -4, 4)
        bound = rng.randint(1, 6 if n < 4 else 4)
        target = rng.randint(-8, 8)
        got = box_vectors(L, target, bound)
        assert got == oracle_enumerate(L, target, bound)
        assert got == sorted(got)


# ---------------------------------------------------------------------------
# hyperbolic-plane search


def check_hyperbolic_pair(L, pair):
    v, w = pair
    assert L.norm(v) == 0
    assert L.norm(w) == 0
    assert L.pairing(v, w) == 1


def test_hyperbolic_in_u():
    U = standard_lattice("U")
    pair = find_hyperbolic_plane(U, 1)
    check_hyperbolic_pair(U, pair)
    assert pair == find_hyperbolic_plane(U, 1)  # deterministic


def test_hyperbolic_in_d10():
    L = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    pair = find_hyperbolic_plane(L, 5)
    check_hyperbolic_pair(L, pair)


def test_hyperbolic_absent_for_d12():
    L = GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 2)))
    assert find_hyperbolic_plane(L, 30) is None


def test_hyperbolic_d3578_needs_a_larger_box():
    # labelling lattice of d = 3578 = 2 * 1789: the plane lies outside the
    # radius-20 box but inside radius 60
    L = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 894)))
    assert determinant(L) == 3578
    assert find_hyperbolic_plane(L, 20) is None
    check_hyperbolic_pair(L, find_hyperbolic_plane(L, 60))


def test_hyperbolic_partner_need_not_lie_in_the_box():
    # v = (1, 1, 1) is the least isotropic box vector with G v of content
    # 1; its partner lies far outside the radius-1 box
    L = GramLattice(((-2, 0, -3), (0, -2, -6), (-3, -6, 22)))
    v, w = find_hyperbolic_plane(L, 1)
    assert v == (1, 1, 1) and max(abs(x) for x in w) > 1
    check_hyperbolic_pair(L, (v, w))


def random_even_gram(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randint(-4, 4)
    return GramLattice(tuple(tuple(row) for row in g))


def test_hyperbolic_plane_is_the_least_box_vector_with_content_1():
    # brute force: the least isotropic box vector, by sup-norm and then
    # sign-normalized lex, whose G v has content 1
    rng = Random(7)
    found = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        L = random_even_gram(rng, n)
        bound = rng.randint(1, {2: 6, 3: 3, 4: 2}[n])
        best = None
        for v in product(range(-bound, bound + 1), repeat=n):
            if next((x for x in v if x), 0) <= 0 or L.norm(v) != 0:
                continue
            key = (max(map(abs, v)), v)
            if gcd(*intmat.mat_vec(L.gram, v)) == 1 and (best is None or key < best):
                best = key
        pair = find_hyperbolic_plane(L, bound)
        if best is None:
            assert pair is None
            continue
        found += 1
        assert pair[0] == best[1]
        check_hyperbolic_pair(L, pair)
    assert found > 100


def test_hyperbolic_partner_exists_iff_content_1():
    rng = Random(11)
    seen = {True: 0, False: 0}
    for _ in range(200):
        L = random_even_gram(rng, rng.randint(2, 4))
        for v in box_vectors(L, 0, 2):
            if not any(v):
                continue
            w = hyperbolic_partner(L, v)
            primitive = gcd(*intmat.mat_vec(L.gram, v)) == 1
            assert (w is not None) == primitive
            if w is not None:
                check_hyperbolic_pair(L, (v, w))
            seen[primitive] += 1
    assert seen[True] > 100 and seen[False] > 100
    with pytest.raises(LatticeError, match="isotropic"):
        hyperbolic_partner(standard_lattice("U"), (1, 1))


def test_hyperbolic_requires_even():
    with pytest.raises(LatticeError):
        find_hyperbolic_plane(standard_lattice("I(2,0)"), 2)


def test_hyperbolic_box_past_the_limit_is_refused():
    assert (2 * 1 + 1) ** 21 > HYPERBOLIC_BOX_MAX
    with pytest.raises(LatticeError, match="HYPERBOLIC_BOX_MAX"):
        find_hyperbolic_plane(standard_lattice("Lambda"), 1)
    with pytest.raises(LatticeError, match="HYPERBOLIC_BOX_MAX"):
        find_hyperbolic_plane(GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 2))), 2000)
    # a degenerate form can leave the solved last coordinate free, so its
    # whole box counts: 707^2 prefixes would pass, 707^3 points do not
    degenerate = direct_sum(twist(standard_lattice("U"), 2), GramLattice(((0,),)))
    assert 707**2 <= HYPERBOLIC_BOX_MAX < 707**3
    with pytest.raises(LatticeError, match="HYPERBOLIC_BOX_MAX"):
        find_hyperbolic_plane(degenerate, 353)


# ---------------------------------------------------------------------------
# serialization


def test_gram_text_round_trip():
    L = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    assert parse_gram_text(format_gram_text(L)) == L
    with pytest.raises(LatticeError):
        parse_gram_text("2\n1 2 3\n")
    with pytest.raises(LatticeError):
        parse_gram_text("x\n1\n")
