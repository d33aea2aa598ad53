"""Determinant, rank and inertia by orthogonal blocks equal the whole-matrix
elimination on seeded shuffled direct sums up to rank 48.  The checks raise
explicitly, so the sweep also holds under python -O.

Run: python -O tests/sweeps/block_split.py [count]   (default 20000)
"""

import sys
from random import Random

from gmlattice.intmat import _bareiss, _inertia, bareiss_det, inertia, rank, to_matrix


def main(count=20000):
    rng = Random(29)
    # one entry in four is 0, the rest lie in [-99, 99]
    pool = [0] * 66 + [x for x in range(-99, 100) if x]
    bad, split = [], 0
    for t in range(count):
        kind = t % 3  # 0: det, 1: rank of a rectangular sum, 2: inertia
        target = rng.randint(1, 48)
        shapes = []
        while sum(h for h, _ in shapes) < target:
            k = rng.randint(1, 6)
            shapes.append((k, k) if kind != 1 else (k, rng.randint(0, 6)))
        m, n = sum(h for h, _ in shapes), sum(w for _, w in shapes)
        S = [[0] * n for _ in range(m)]
        r = c = 0
        for h, w in shapes:
            for i in range(h):
                for j in range(w):
                    S[r + i][c + j] = rng.choice(pool)
            if kind == 2:
                for i in range(h):
                    for j in range(i):
                        S[r + i][c + j] = S[r + j][c + i]
            r, c = r + h, c + w
        rho = rng.sample(range(m), m)
        gamma = rho if kind == 2 else rng.sample(range(n), n)
        M = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(n):
                M[rho[i]][gamma[j]] = S[i][j]
        M = to_matrix(M)
        split += min(m, n) >= 12
        if kind == 0:
            r, pivot = _bareiss(M)
            ok = bareiss_det(M) == (pivot if r == m else 0)
        elif kind == 1:
            ok = rank(M) == _bareiss(M)[0]
        else:
            ok = inertia(M) == _inertia(M)
        if not ok:
            bad.append(M)
    if bad:
        raise AssertionError(bad[:3])
    if split <= count * 3 // 5:
        raise AssertionError(split)
    print(split, 'of', count, 'sums went through the block split')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
