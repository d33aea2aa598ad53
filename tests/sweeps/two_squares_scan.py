"""two_square_decompositions equals an x-scan on seeded n in [lo, hi], and
on fixed n past 10^7 with high prime powers, where each split of a prime
p = 1 (mod 4) is stepped from the last by one exact division by p.  The
checks raise explicitly, so the sweep also holds under python -O.

Run: python -O tests/sweeps/two_squares_scan.py [count lo hi]
(default 200 10^10 5*10^10)
"""

import sys
from math import isqrt
from random import Random

from gmlattice.arith import two_square_decompositions


def scan(n):
    return [(x, isqrt(n - x * x)) for x in range(isqrt(n // 2) + 1) if isqrt(n - x * x) ** 2 == n - x * x]


# checked on every run, whatever the seeded range
HIGH_POWERS = [5**9 * 13**4 * 2**3, 17**5 * 29**3 * 3**4, 2 * 5**12, 13**10, 5**6 * 13**3 * 17**2 * 2]


def main(count=200, lo=10**10, hi=5 * 10**10):
    rng = Random(25)
    ns = [rng.randint(lo, hi) for _ in range(count)]
    bad = [n for n in ns + HIGH_POWERS if two_square_decompositions(n) != scan(n)]
    if bad:
        raise AssertionError(bad[:10])
    found = sum(bool(two_square_decompositions(n)) for n in ns)
    if not found:
        raise AssertionError('no n is a sum of two squares')
    print(found, 'of', count, 'are sums of two squares')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
