"""The 3x3 cofactor determinant equals the Bareiss elimination's signed last
pivot on seeded matrices, dense in [-10^6, 10^6] and mostly zero.  The
checks raise explicitly, so the sweep also holds under python -O.

Run: python -O tests/sweeps/cofactor_det.py [count]   (default 200000)
"""

import sys
from random import Random

from gmlattice.intmat import _bareiss, bareiss_det


def main(count=200000):
    rng = Random(24)
    def entry(sparse):
        return rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) if sparse else rng.randint(-10**6, 10**6)
    bad = []
    singular = 0
    for t in range(count):
        M = tuple(tuple(entry(t % 2) for _ in range(3)) for _ in range(3))
        r, pivot = _bareiss(M)
        det = bareiss_det(M)
        singular += det == 0
        if det != (pivot if r == 3 else 0):
            bad.append(M)
    if bad:
        raise AssertionError(bad[:10])
    if singular <= count // 5:
        raise AssertionError(singular)
    print(singular, 'singular of', count)


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
