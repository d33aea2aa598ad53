"""two_square_decompositions equals an x-scan on seeded n in [lo, hi].

Run: python tests/sweeps/two_squares_scan.py [count lo hi]
(default 200 10^10 5*10^10)
"""

import sys
from math import isqrt
from random import Random

from gmlattice.arith import two_square_decompositions


def scan(n):
    return [(x, isqrt(n - x * x)) for x in range(isqrt(n // 2) + 1) if isqrt(n - x * x) ** 2 == n - x * x]


def main(count=200, lo=10**10, hi=5 * 10**10):
    rng = Random(25)
    ns = [rng.randint(lo, hi) for _ in range(count)]
    bad = [n for n in ns if two_square_decompositions(n) != scan(n)]
    assert not bad, bad[:10]
    found = sum(bool(two_square_decompositions(n)) for n in ns)
    assert found, 'no n is a sum of two squares'
    print(found, 'of', count, 'are sums of two squares')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
