"""pell_solvable(m, -1) agrees with negative_pell and pell_solvable(m, 1)
holds for every non-square m < m_max, each reading the period parity off its
own walk, and where P_m(-1) is solvable, the P_m(5) that _negative_pell reads
off that walk equals pell_solvable(m, 5); for square m, pell_solvable(m, -1)
holds exactly at m = 1.

Run: python -O tests/sweeps/pell_pm1.py [m_max]   (default 2*10^5)
"""

import sys
from math import isqrt

from gmlattice import pell
from gmlattice.arith import is_square
from gmlattice.pell import negative_pell, pell_solvable


def main(m_max=2 * 10**5):
    real, walks = pell._half_period, []
    ms = [m for m in range(2, m_max) if not is_square(m)]
    pell._half_period = lambda m: walks.append(m) or real(m)
    try:
        minus = [pell_solvable(m, -1) for m in ms]
        plus = [pell_solvable(m, 1) for m in ms]
    finally:
        pell._half_period = real
    if walks:
        raise AssertionError(walks[:10])
    if not all(plus):
        raise AssertionError([m for m, ok in zip(ms, plus) if not ok][:10])
    reads = [pell._negative_pell(m) for m in ms]
    bad = [m for m, ok, (sol, _) in zip(ms, minus, reads) if ok != (sol is not None)]
    if bad:
        raise AssertionError(bad[:10])
    bad = [m for m, (sol, f) in zip(ms, reads) if f != (None if sol is None else pell_solvable(m, 5))]
    if bad:
        raise AssertionError(bad[:10])
    # n^2 - r^2 a^2 = -1 factors as (r a - n)(r a + n) = 1: only r = 1 solves it
    squares = [r * r for r in range(1, isqrt(m_max - 1) + 1)]
    bad = [m for m in squares if pell_solvable(m, -1) != (m == 1) or (negative_pell(m) is not None) != (m == 1)]
    if bad:
        raise AssertionError(bad[:10])
    fives = sum(f is True for _, f in reads)
    print(sum(minus), 'of', len(ms), 'non-square m solve P_m(-1), with no separate parity walk, and', fives, 'of them P_m(5), read off that walk')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
