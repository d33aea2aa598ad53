"""The two-square pairs built from the factorization equal a pair enumeration
for every n in [lo, hi).

The check raises explicitly, so the sweep also holds under python -O.

Run: python -O tests/sweeps/two_squares.py [lo hi]   (default 0 10000000;
CI runs [0, 5*10^6) and [5*10^6, 10^7) as two processes)
"""

import sys
from array import array
from functools import lru_cache
from math import isqrt

from gmlattice import arith


def main(lo=0, hi=10**7):
    # x^2 + y^2 = p depends on p alone: build it once per prime
    real = arith._prime_two_squares
    arith._prime_two_squares = lru_cache(maxsize=None)(real)
    try:
        spf = array('I', range(hi))
        for p in range(isqrt(hi), 1, -1):
            spf[p * p::p] = array('I', [p]) * len(range(p * p, hi, p))
        bad, pairs = [], 0
        for start in range(lo, hi, 1 << 16):
            stop = min(start + (1 << 16), hi)
            oracle = {}
            for x in range(isqrt((stop - 1) // 2) + 1):
                y = max(x, isqrt(max(start - x * x, 0)))
                while (n := x * x + y * y) < stop:
                    if n >= start:
                        oracle.setdefault(n, []).append((x, y))
                    y += 1
            for n in range(max(start, 1), stop):
                f, m = {}, n
                while m > 1:
                    p = spf[m]
                    f[p] = f.get(p, 0) + 1
                    m //= p
                got = arith.factored_two_square_decompositions(f)
                pairs += len(got)
                if got != oracle.get(n, []):
                    bad.append(n)
    finally:
        arith._prime_two_squares = real
    if bad:
        raise AssertionError(bad[:10])
    print(pairs, 'pairs for n in', [lo, hi])


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
