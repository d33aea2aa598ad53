"""Exact linear algebra against independent oracles."""

import time
from itertools import combinations
from math import gcd, prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmlattice import intmat
from gmlattice.errors import LatticeError
from gmlattice.lattice import GramLattice


def cofactor_det(M):
    """Independent determinant by recursive cofactor expansion."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def minor_gcd_invariants(M):
    """Independent invariant factors via gcds of k x k minors."""
    m, n = len(M), len(M[0])
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def random_matrix(rng, m, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def test_bareiss_matches_cofactor_expansion():
    rng = Random(1)
    cases = []
    for t in range(120):
        n = rng.randint(0, 5)
        if t % 2 and n > 1:
            k = rng.randint(1, n - 1)  # a product of rank at most k < n
            cases.append(intmat.mat_mul(random_matrix(rng, n, k), random_matrix(rng, k, n)))
        else:
            cases.append(random_matrix(rng, n, n))
    # 3x3 cases for the cofactor path: products of rank 0, 1 and 2, a zero
    # row, and entries past 10^100
    rng = Random(24)
    singular = [((0,) * 3,) * 3, intmat.mat_mul(random_matrix(rng, 3, 1), ((0, 0, 0),))]
    for k in (1, 2):
        singular += [intmat.mat_mul(random_matrix(rng, 3, k), random_matrix(rng, k, 3)) for _ in range(20)]
    for i in range(3):
        M = [list(r) for r in random_matrix(rng, 3, 3)]
        M[i] = [0, 0, 0]
        singular.append(intmat.to_matrix(M))
    assert not any(map(intmat.bareiss_det, singular))
    cases += singular
    cases += [random_matrix(rng, 3, 3, -(10**120), 10**120) for _ in range(20)]
    cases += [random_matrix(rng, 3, 3, -(10**101), -(10**100)) for _ in range(5)]
    for M in cases:
        n = len(M)
        det = intmat.bareiss_det(M)
        # bareiss_det is a cofactor expansion at n = 3, so the elimination's
        # signed last pivot is checked on its own
        r, pivot = intmat._bareiss(M)
        assert det == cofactor_det([list(row) for row in M]) == (pivot if r == n else 0)
        assert (det != 0) == (intmat.rank(M) == n)
    # a 3x4 matrix keeps the elimination's signed last pivot (the minor on
    # columns 1-3 here), where an expansion of the first three columns is 0
    assert intmat.bareiss_det(((0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 10))) == -3


def _naive_mat_vec(A, v):
    return tuple(sum(A[i][j] * v[j] for j in range(min(len(A[i]), len(v)))) for i in range(len(A)))


def _naive_mat_mul(A, B):
    k, n = len(B), len(B[0]) if B else 0
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(min(len(A[i]), k))) for j in range(n))
        for i in range(len(A))
    )


def _naive_pairing(G, v, w):
    n = len(G)
    return sum(v[i] * G[i][j] * w[j] for i in range(n) for j in range(n))


def test_mat_mul_equals_the_dot_product_definition():
    # mat_mul adds up rows of B over the nonzero entries of A; entry (i, j)
    # must stay the dot product of row i of A and column j of B
    rng = Random(35)

    def matrix(m, n, density):
        return tuple(
            tuple(rng.randint(-(10**30), 10**30) if rng.random() < density else 0 for _ in range(n))
            for _ in range(m)
        )

    shapes = [(22, 24, 24), (24, 24, 22), (3, 3, 3), (2, 2, 2), (1, 5, 7), (7, 5, 1)]
    shapes += [tuple(rng.randint(1, 12) for _ in range(3)) for _ in range(200)]
    for m, k, n in shapes:
        for density in (0.0, 0.1, 0.5, 1.0):
            A, B = matrix(m, k, density), matrix(k, n, 1 - density)
            got = intmat.mat_mul(A, B)
            assert got == tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A)
            assert all(type(x) is int for row in got for x in row)
    # empty on each side: m x 0 times 0 x n has no column to read n from
    assert intmat.mat_mul((), ((1, 2),)) == ()
    assert intmat.mat_mul(((),) * 3, ()) == ((),) * 3
    assert intmat.mat_mul(((1, 0),), ((), ())) == ((),)


def test_kernels_match_index_loops():
    rng = Random(25)

    def entry():
        return rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-(10**300), 10**300)])

    def matrix(m, n):
        return tuple(tuple(entry() for _ in range(n)) for _ in range(m))

    for _ in range(400):
        m, k, n = (rng.randint(0, 6) for _ in range(3))
        A, B = matrix(m, k), matrix(k, n)
        v = tuple(entry() for _ in range(k))
        assert intmat.mat_vec(A, v) == _naive_mat_vec(A, v)
        # like zip, the kernel stops at the shorter of a row and the vector
        assert intmat.mat_vec(A, v[:-1]) == _naive_mat_vec(A, v[:-1])
        assert intmat.mat_mul(A, B) == _naive_mat_mul(A, B)
        assert intmat.to_matrix([list(r) for r in A]) == A
        g = [[entry() for _ in range(n)] for _ in range(n)]
        L = GramLattice(tuple(tuple(g[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)))
        v, w = matrix(2, n)
        assert L.pairing(v, w) == _naive_pairing(L.gram, v, w) == L.pairing(w, v)
        assert L.norm(v) == _naive_pairing(L.gram, v, v)
        for bad in ((v + (1,), w), (v, w + (0,))):
            with pytest.raises(LatticeError):
                L.pairing(*bad)
        with pytest.raises(LatticeError):
            L.norm(v + (0,))
    with pytest.raises(TypeError):
        intmat.to_matrix([[1.0]])


def test_smith_normal_form_examples():
    D, U, V = intmat.smith_normal_form_full(((2, 0), (0, 2)))
    assert (D[0][0], D[1][1]) == (2, 2)
    D, U, V = intmat.smith_normal_form_full(((0, 1), (1, 0)))
    assert (D[0][0], D[1][1]) == (1, 1)
    D, U, V = intmat.smith_normal_form_full(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    assert (D[0][0], D[1][1], D[2][2]) == (1, 1, 10)


def random_even_gram(rng, n, hi=9):
    """Symmetric; off-diagonal entries in [-hi, hi], diagonal in 2*[-hi, hi]."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-hi, hi) * (2 if i == j else 1)
    return intmat.to_matrix(g)


# (rank, seed, entry bound): an unreduced Euclid elimination took 25 s on
# the rank-12 seed-3 Gram and grew U and V to 298300 bits for a 48-bit det
EVEN_GRAM_CASES = [(11, 1, 9), (12, 3, 9), (24, 0, 1000)] + [(n, n, 9) for n in range(10, 25)]


def test_smith_normal_form_properties_random():
    rng = Random(3)
    cases = [random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(80)]
    cases += [random_even_gram(Random(seed), n, hi) for n, seed, hi in EVEN_GRAM_CASES]
    for M in cases:
        m, n = len(M), len(M[0])
        start = time.perf_counter()
        D, U, V = intmat.smith_normal_form_full(M)
        assert time.perf_counter() - start < 1.0
        assert intmat.mat_mul(intmat.mat_mul(U, M), V) == D
        assert abs(intmat.bareiss_det(U)) == 1
        assert abs(intmat.bareiss_det(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        if m == n and intmat.bareiss_det(M):
            det = intmat.bareiss_det(M)
            assert prod(diag) == abs(det)
            # the transforms stay near the size of det M (measured: at most
            # about twice its bits on these draws)
            bits = max(abs(x).bit_length() for T in (U, V) for row in T for x in row)
            assert bits <= 3 * abs(det).bit_length() + 64
            # row i of U*M is d_i times row i of V^-1
            UM = intmat.mat_mul(U, M)
            assert all(x % D[i][i] == 0 for i in range(n) for x in UM[i])
            Vinv = [[x // D[i][i] for x in UM[i]] for i in range(n)]
            assert intmat.mat_mul(V, Vinv) == intmat.identity(n)
        if m <= 4 and n <= 4:
            assert [d for d in diag if d] == minor_gcd_invariants([list(r) for r in M])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_smith_normal_form_hypothesis(m, n, data):
    M = tuple(
        tuple(data.draw(st.integers(-30, 30)) for _ in range(n)) for _ in range(m)
    )
    D, U, V = intmat.smith_normal_form_full(M)
    assert intmat.mat_mul(intmat.mat_mul(U, M), V) == D
    for i in range(m):
        for j in range(n):
            if i == j:
                assert D[i][j] >= 0
            else:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a and b % a == 0


def test_hermite_row_basis_is_canonical():
    rng = Random(4)
    for t in range(61):
        # the last draw is a 34 x 32 matrix that an unreduced Euclid loop did
        # not finish in 5 s
        if t < 60:
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        else:
            M = random_matrix(Random(4), 34, 32)
        m = len(M)
        start = time.perf_counter()
        H = intmat.hermite_row_basis(M)
        assert time.perf_counter() - start < 1.0
        # unimodular row mixing does not change the canonical basis
        mixed = [list(r) for r in M]
        for _ in range(6):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                q = rng.randint(-3, 3)
                mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        assert intmat.hermite_row_basis(mixed) == H
        for k, row in enumerate(H):
            c = next(c for c, x in enumerate(row) if x)
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in H[:k])


def test_kernel_basis_annihilates_and_is_primitive():
    rng = Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        K = intmat.kernel_basis(M)
        for row in K:
            assert all(sum(M[i][j] * row[j] for j in range(n)) == 0 for i in range(m))
        if K:
            assert all(d == 1 for d in intmat.invariant_factors(K))
        assert len(K) == n - intmat.rank(M)


def test_rank_and_identity():
    for n in range(8):
        assert intmat.identity(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert intmat.rank(intmat.identity(4)) == 4
    assert intmat.rank(((0, 0), (0, 0))) == 0
    assert intmat.rank(((1, 2), (2, 4))) == 1


def test_rank_matches_smith_invariant_factors():
    rng = Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            k = rng.randint(1, min(m, n))  # a product of rank at most k
            M = intmat.mat_mul(random_matrix(rng, m, k), random_matrix(rng, k, n))
        else:
            M = tuple(
                tuple(rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n))
                for _ in range(m)
            )
        assert intmat.rank(M) == len(intmat.invariant_factors(M)), M


# ---------------------------------------------------------------------------
# elimination by blocks


def permutation_sign(p):
    """(-1)^(number of inversions), independent of intmat's cycle count."""
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def shuffled_direct_sum(rng, blocks):
    """(M, sign): the direct sum of blocks, given as (rows, width) pairs,
    with its rows and its columns shuffled, and the product of the signs
    of the two shuffles.  A block ([()], 0) is a zero row, ([], 1) a zero
    column."""
    m = sum(len(rows) for rows, _ in blocks)
    n = sum(width for _, width in blocks)
    S = [[0] * n for _ in range(m)]
    r = c = 0
    for rows, width in blocks:
        for i, row in enumerate(rows):
            S[r + i][c : c + width] = row
        r, c = r + len(rows), c + width
    rho = list(range(m))
    rng.shuffle(rho)
    gamma = rng.sample(range(n), n)
    M = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            M[rho[i]][gamma[j]] = S[i][j]
    return intmat.to_matrix(M), permutation_sign(rho) * permutation_sign(gamma)


def random_block(rng, h, w, huge):
    bound = 10**120 if huge else 9
    rows = [[rng.randrange(8) and rng.choice((1, -1)) * rng.randint(1, bound) for _ in range(w)] for _ in range(h)]
    if h == w and rng.random() < 0.3:  # symmetric
        rows = [[rows[min(i, j)][max(i, j)] for j in range(w)] for i in range(h)]
    if h == w > 1 and rng.random() < 0.1:  # singular: a product of rank < h
        k = rng.randint(0, h - 1)
        rows = [list(r) for r in intmat.mat_mul(random_matrix(rng, h, k), random_matrix(rng, k, w))] if k else [[0] * w] * h
    return rows


def test_block_split_determinant_matches_whole_elimination_and_cofactors():
    rng = Random(29)
    nonzero = split = 0
    for t in range(300):
        sizes, target = [], rng.randint(4, 24)
        while sum(sizes) < target:
            sizes.append(rng.randint(1, min(5, target - sum(sizes))))
        blocks = [(random_block(rng, k, k, t % 5 == 0), k) for k in sizes]
        if t % 3 == 0:  # a rectangular pair, a zero row and a zero column keep it square
            blocks += [(random_block(rng, 2, 3, False), 3), (random_block(rng, 3, 2, False), 2), ([()], 0), ([], 1)]
            rng.shuffle(blocks)
        M, sign = shuffled_direct_sum(rng, blocks)
        n = len(M)
        assert all(len(row) == n for row in M)
        square = all(len(rows) == width for rows, width in blocks)
        expected = sign * prod(cofactor_det(rows) for rows, _ in blocks) if square else 0
        r, pivot = intmat._bareiss(M)
        det = intmat.bareiss_det(M)
        assert det == expected == (pivot if r == n else 0), (M, det, expected)
        assert intmat.rank(M) == r
        nonzero += det != 0
        split += n >= intmat._SPLIT_MIN
    assert nonzero > 100 and split > 100, (nonzero, split)


def test_block_split_rank_matches_whole_elimination_on_rectangular_sums():
    rng = Random(30)
    split = 0
    for t in range(300):
        blocks, target = [], rng.randint(4, 24)
        while sum(len(rows) for rows, _ in blocks) < target:
            kind = rng.random()
            if kind < 0.1:
                blocks.append(([()], 0))
            elif kind < 0.2:
                blocks.append(([], 1))
            else:
                h, w = rng.randint(1, 5), rng.randint(1, 5)
                blocks.append((random_block(rng, h, w, t % 5 == 0), w))
        M, _ = shuffled_direct_sum(rng, blocks)
        whole = intmat._bareiss(M)[0]
        assert intmat.rank(M) == whole == sum(intmat._bareiss(rows)[0] for rows, _ in blocks), M
        if len(M) == len(M[0]):
            assert (intmat.bareiss_det(M) != 0) == (whole == len(M))
        split += min(len(M), len(M[0])) >= intmat._SPLIT_MIN
    assert split > 50, split

