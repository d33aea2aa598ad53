"""Exact linear algebra over Z and Q: determinants and ranks by fraction-free
elimination, the inertia (signature) of a symmetric matrix by the symmetric
form of that elimination, Smith and Hermite normal forms, integer kernels.

All routines take and return immutable tuples of tuples of Python ints, so
results are hashable and safe to share between threads.  No floating point is
used anywhere.
"""

from operator import index as _int

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
    return tuple(tuple(_int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B) -> Matrix:
    Bt = list(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_vec(A, v) -> tuple[int, ...]:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


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


def bareiss_det(M: Matrix) -> int:
    """Exact determinant of a square matrix by fraction-free elimination."""
    r, pivot = _bareiss(M)
    return pivot if r == len(M) else 0


def inertia(M: Matrix) -> tuple[int, int, int]:
    """(positive, negative, null) of a symmetric integer matrix, exactly.

    Fraction-free symmetric elimination.  With D_k the k-th pivot, the k-th
    leading minor (D_0 = 1), the form is congruent to diag(D_1/D_0, ...,
    D_r/D_{r-1}) plus the Schur complement, so by Sylvester's law of inertia
    each pivot counts with the sign of D_k * D_{k-1}.  A nonzero diagonal
    entry is brought to the front by a symmetric swap; if the active
    diagonal is zero but some a_ij is not, e_i <- e_i + e_j makes
    a_ii = 2 a_ij.  Both are row-and-column operations inside the active
    block, whose entries are bordered minors linear in their row and
    column, so the Bareiss divisions stay exact.  Once the active block is
    zero, the rest of the form is null.
    """
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


def smith_normal_form_full(M: Matrix):
    """Return (D, U, V) with U*M*V = D diagonal, d1 | d2 | ... >= 0.

    The elimination runs on the block matrix W = [[M, I_m], [I_n, 0]]: a row
    operation on the first m rows acts on M and builds the unimodular U in
    the right block, a column operation on the first n columns acts on M and
    builds the unimodular V in the bottom block.  No inverse is tracked;
    U*M = D*V^-1, so row i of U*M is d_i times row i of V^-1.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    # W without its zero block, which no operation touches
    a = [list(row) + list(e) for row, e in zip(M, identity(m))]
    a += [list(row) for row in identity(n)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def row_addmul(dst, src, q):
        if q:
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_addmul(dst, src, q):
        if q:
            for row in a:
                row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            # clear column t below and above, Euclid-style
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(n):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the rest of the block
            fix = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_addmul(t, fix, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1

    D = to_matrix(row[:n] for row in a[:m])
    return D, to_matrix(row[n:] for row in a[:m]), to_matrix(a[m:])


def invariant_factors(M: Matrix) -> list[int]:
    D = smith_normal_form_full(M)[0]
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


def rank(M: Matrix) -> int:
    """Rank over Q: the number of Bareiss pivots."""
    return _bareiss(M)[0]


def hermite_row_basis(rows) -> Matrix:
    """Canonical basis (row-style Hermite normal form) of the row module.

    Pivots positive, entries above each pivot reduced to [0, pivot); zero
    rows dropped.  Two generating sets of the same module map to identical
    output, which is what makes enumeration results reproducible.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return ()
    n = len(a[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(a)):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            while a[i][c]:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return to_matrix(row for row in a[:r] if any(row))


def kernel_basis(M: Matrix) -> Matrix:
    """Primitive basis of {x in Z^n : M x = 0}, as canonical HNF rows.

    The kernel of the Smith decomposition is spanned by the columns of V
    past the rank; since V is unimodular that span is automatically
    saturated in Z^n.
    """
    if not M:
        return identity(0)
    n = len(M[0])
    D, _, V = smith_normal_form_full(M)
    r = len([1 for i in range(min(len(D), n)) if D[i][i]])
    cols = [tuple(V[i][j] for i in range(n)) for j in range(r, n)]
    return hermite_row_basis(cols)

