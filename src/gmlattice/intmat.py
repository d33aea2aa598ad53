"""Exact linear algebra over Z and Q: determinants and ranks by fraction-free
elimination, the inertia (signature) of a symmetric matrix by the symmetric
form of that elimination, Smith and Hermite normal forms, integer kernels.

Determinant, rank and inertia first split the matrix by the connected
components of its nonzero pattern and eliminate each block on its own, so
an orthogonal direct sum such as the rank-22 vanishing lattice
E8^2 + U^2 + I(2,0)(2) costs a few 8x8 eliminations, not one cubic
elimination of rank 22.  Determinant and inertia move rows and columns
together, so each block is square and the determinant is the product of
the blocks' with no sign; only rank, whose matrices are rectangular, moves
them apart.  A 3x3 determinant is the cofactor expansion
instead: one expression of twelve products costs less than the
elimination's row loop.  Dot products run as sum(map(mul, ...)), whose
inner loop is in C; a matrix product adds up rows of the right factor
and skips the zero entries of the left one.

All routines take and return immutable tuples of tuples of Python ints, so
results are hashable and safe to share between threads.  No floating point is
used anywhere.
"""

from itertools import compress
from operator import index as _int, mul

from .arith import xgcd

Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "bareiss_det",
    "hermite_row_basis",
    "identity",
    "inertia",
    "kernel_basis",
    "mat_mul",
    "mat_vec",
    "rank",
    "smith_normal_form_full",
    "to_matrix",
    "transpose",
]


def to_matrix(rows) -> Matrix:
    """Freeze rows into an integer matrix; rejects non-integral entries."""
    return tuple(tuple(map(_int, row)) for row in rows)


def identity(n: int) -> Matrix:
    # row i is the window of n entries of (0,)*(n-1) + (1,) + (0,)*(n-1)
    # that puts the 1 at index i
    line = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return tuple(line[n - 1 - i : 2 * n - 1 - i] for i in range(n))


def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B) -> Matrix:
    """A B, each row the sum of the rows of B weighted by the nonzero
    entries of that row of A: a sparse basis times a Gram skips its zeros."""
    zero = (0,) * len(B[0]) if B else ()
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(A, v) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in A])


def _bareiss(M: Matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination: (rank over Q, signed last pivot).

    Every entry after a step is a minor of M, so the division by the
    previous pivot is exact.  For a full-rank square matrix the last pivot
    times the sign of the row swaps is the determinant.
    """
    a = [list(row) for row in M]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    prev = sign = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        for i in range(r + 1, m):
            row, f = a[i], a[i][c]
            for j in range(c + 1, n):
                row[j] = (row[j] * p - f * a[r][j]) // prev
            row[c] = 0
        prev = p
        r += 1
        if r == m:
            break
    return r, sign * prev


# Below this many rows (or columns, for rank), determinant, rank and
# inertia eliminate the whole matrix without looking for blocks.  On a
# dense matrix, which is one block, the search adds about 30 us to the
# 106 us of a 12x12 bareiss_det and 60 us to the 990 us of a 24x24; it cuts
# a sum of six U from 80 to 62 us and the rank-24 Mukai Gram from 500 to
# 160 us (best of 40 runs, Python 3.11, shared 2-vCPU host).
_SPLIT_MIN = 12


def _blocks(M: Matrix, n: int, together: bool = False) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each connected component of the bipartite graph
    joining row i to column j where M[i][j] != 0, for M with n columns,
    each ascending.  Every nonzero entry lies inside one block, so
    permuting the rows and the columns into block order makes M block
    diagonal; a zero row is the block ([i], []) and a zero column
    ([], [j]).

    With together, for a square M, row i is also joined to column i.  A
    column j then brings row j into its block, so every block's rows
    equal its columns, whether or not M is symmetric: one permutation P
    moves rows and columns together, and P M P^T is block diagonal with
    square blocks.  For a symmetric M these are the components of the
    graph joining i to j where M[i][j] != 0.

    Rows go in one at a time; each block met by the row's nonzero columns
    merges into the row's block.
    """
    r = range(n)
    blocks = []  # (rows, set of columns)
    for i, row in enumerate(M):
        rows, cols = [i], set(compress(r, row))
        if together:
            cols.add(i)
        apart = []
        for block in blocks:
            if cols.isdisjoint(block[1]):
                apart.append(block)
            else:
                rows += block[0]
                cols |= block[1]
        apart.append((rows, cols))
        blocks = apart
    used = set().union(*(cols for _, cols in blocks))
    out = [(sorted(rows), sorted(cols)) for rows, cols in blocks]
    return out + [([], [j]) for j in r if j not in used]


def _submatrix(M: Matrix, rows: list[int], cols: list[int]) -> list[list[int]]:
    return [list(map(M[i].__getitem__, cols)) for i in rows]


def bareiss_det(M: Matrix) -> int:
    """Exact determinant of a square matrix: the cofactor expansion along
    the first row for a 3x3, fraction-free elimination by blocks for every
    other size.

    The blocks of ``_blocks(M, n, together=True)`` are square, and one
    permutation P of rows and columns alike makes P M P^T block diagonal,
    so det M = prod det(block), with no sign.  A matrix that is not square
    keeps the signed last pivot of one whole elimination.
    """
    n = len(M)
    if n == 3 and len(M[0]) == len(M[1]) == len(M[2]) == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n < _SPLIT_MIN or any(len(row) != n for row in M) or len(blocks := _blocks(M, n, together=True)) == 1:
        r, pivot = _bareiss(M)
        return pivot if r == n else 0
    det = 1
    for idx, _ in blocks:
        r, pivot = _bareiss(_submatrix(M, idx, idx))
        if r < len(idx):
            return 0
        det *= pivot
    return det


def _inertia(M: Matrix) -> tuple[int, int, int]:
    """inertia by one symmetric elimination of the whole matrix."""
    a = [list(row) for row in M]
    n, pos, prev = len(a), 0, 1
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][i]), None)
        if i is None:
            ij = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if ij is None:
                return pos, k - pos, n - k
            i, j = ij
            for row in a[k:]:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
        a[k], a[i] = a[i], a[k]
        for row in a[k:]:
            row[k], row[i] = row[i], row[k]
        p = a[k][k]
        pos += (p > 0) == (prev > 0)
        for row in a[k + 1 :]:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (row[c] * p - f * a[k][c]) // prev
        prev = p
    return pos, n - pos, 0


def inertia(M: Matrix) -> tuple[int, int, int]:
    """(positive, negative, null) of a symmetric integer matrix, exactly.

    The connected components of the graph joining i to j where
    M[i][j] != 0 split the form into orthogonal summands, one per
    component, so by Sylvester's law of inertia its inertia is the sum of
    theirs.  Each summand's principal submatrix goes through fraction-free
    symmetric elimination.  With D_k the k-th pivot, the k-th leading minor
    (D_0 = 1), the form is congruent to diag(D_1/D_0, ..., D_r/D_{r-1})
    plus the Schur complement, so each pivot counts with the sign of
    D_k * D_{k-1}.  A nonzero diagonal entry is brought to the front by a
    symmetric swap; if the active diagonal is zero but some a_ij is not,
    e_i <- e_i + e_j makes a_ii = 2 a_ij.  Both are row-and-column
    operations inside the active block, whose entries are bordered minors
    linear in their row and column, so the Bareiss divisions stay exact.
    Once the active block is zero, the rest of the form is null.
    """
    if len(M) < _SPLIT_MIN or len(blocks := _blocks(M, len(M), together=True)) == 1:
        return _inertia(M)
    pos = neg = null = 0
    for idx, _ in blocks:
        p, q, z = _inertia(_submatrix(M, idx, idx))
        pos, neg, null = pos + p, neg + q, null + z
    return pos, neg, null


def _echelon(rows, n: int):
    """Row Hermite form of the first n columns: (H, Z).

    H holds the rows with a pivot, in pivot order, each pivot positive and
    every entry above it in [0, pivot); Z holds the rows whose first n
    entries end up 0.  Columns past n ride along, so on [M | I] they record
    the unimodular transform.  Rows go in one at a time and meet the pivots
    through unimodular 2x2 xgcd steps; after each insertion every pivot row
    is size-reduced against the pivots to its right (Kannan & Bachem, SIAM
    J. Comput. 8, 1979), which keeps the entries near the size of the
    determinant.
    """
    piv = {}  # pivot column -> row
    Z = []
    for r in rows:
        c = first = next((j for j in range(n) if r[j]), n)
        while c < n:
            p = piv.get(c)
            if p is None:
                piv[c] = r if r[c] > 0 else [-x for x in r]
                break
            g, s, t = xgcd(p[c], r[c])
            a, b = p[c] // g, r[c] // g
            piv[c] = [s * x + t * y for x, y in zip(p, r)]
            r = [a * y - b * x for x, y in zip(p, r)]
            c = next((j for j in range(c + 1, n) if r[j]), n)
        else:
            Z.append(r)
        # the insertion changed only pivots at columns >= first, and reducing
        # by a pivot changes a row only past that pivot's column, so every
        # row is still reduced at the pivot columns before first
        cols = sorted(piv)
        for k, c in enumerate(cols):
            if c < first:
                continue
            p = piv[c]
            for above in cols[:k]:
                q = piv[above][c] // p[c]
                if q:
                    piv[above] = [x - q * y for x, y in zip(piv[above], p)]
    return [piv[c] for c in sorted(piv)], Z


def smith_normal_form_full(M: Matrix):
    """Return (D, U, V) with U*M*V = D diagonal, d1 | d2 | ... >= 0.

    Alternates a row Hermite form of [A | U] with a column Hermite form of
    [A^T | V^T] until A is diagonal, then makes each diagonal pair (a, b)
    into (g, ab/g), g = pa + qb, with U2 = [[p, q], [-b/g, a/g]] on rows i,
    j of U and V2 = [[1, -qb/g], [1, pa/g]] on columns i, j of V.  D is
    unique; U and V are one valid choice.  No inverse is tracked; U*M =
    D*V^-1, so row i of U*M is d_i times row i of V^-1.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A, U, V = M, identity(m), identity(n)

    def diagonal(A):
        return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(A))

    while True:
        H, Z = _echelon(([*a, *u] for a, u in zip(A, U)), n)
        A = [r[:n] for r in H + Z]
        U = [r[n:] for r in H + Z]
        if diagonal(A):
            break
        H, Z = _echelon(([*a, *v] for a, v in zip(transpose(A), transpose(V))), m)
        A = transpose([r[:m] for r in H + Z])
        V = transpose([r[m:] for r in H + Z])
        if diagonal(A):
            break

    V = [list(row) for row in V]
    d = [A[i][i] for i in range(min(m, n))]
    r = len([x for x in d if x])
    for i in range(r):
        for j in range(i + 1, r):
            a, b = d[i], d[j]
            if b % a:
                g, p, q = xgcd(a, b)
                ui, uj = U[i], U[j]
                U[i] = [p * x + q * y for x, y in zip(ui, uj)]
                U[j] = [(a * y - b * x) // g for x, y in zip(ui, uj)]
                for row in V:
                    x, y = row[i], row[j]
                    row[i], row[j] = x + y, (p * a * y - q * b * x) // g
                d[i], d[j] = g, a * b // g
    D = tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(m))
    return D, to_matrix(U), to_matrix(V)


def invariant_factors(M: Matrix) -> list[int]:
    D = smith_normal_form_full(M)[0]
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


def rank(M: Matrix) -> int:
    """Rank over Q: the number of Bareiss pivots, summed over the blocks of
    ``_blocks``.  The rows and the columns, each permuted on its own, make
    M block diagonal, and its rank is the sum of the blocks' ranks."""
    n = len(M[0]) if M else 0
    if len(M) < _SPLIT_MIN or n < _SPLIT_MIN or len(blocks := _blocks(M, n)) == 1:
        return _bareiss(M)[0]
    return sum(_bareiss(_submatrix(M, rows, cols))[0] for rows, cols in blocks)


def hermite_row_basis(rows) -> Matrix:
    """Canonical basis (row-style Hermite normal form) of the row module.

    Pivots positive, entries above each pivot reduced to [0, pivot); zero
    rows dropped.  Two generating sets of the same module map to identical
    output, which is what makes enumeration results reproducible.
    """
    rows = [tuple(row) for row in rows]
    return to_matrix(_echelon(rows, len(rows[0]) if rows else 0)[0])


def kernel_basis(M: Matrix) -> Matrix:
    """Primitive basis of {x in Z^n : M x = 0}, as canonical HNF rows.

    The row Hermite form of [M^T | I_n] is T*[M^T | I_n] with T unimodular;
    the parts of T in the rows where M^T went to zero span the kernel, and
    since T is unimodular that span is saturated in Z^n.
    """
    if not M:
        return identity(0)
    n = len(M[0])
    _, Z = _echelon(([*c, *e] for c, e in zip(transpose(M), identity(n))), len(M))
    return hermite_row_basis(z[len(M) :] for z in Z)
