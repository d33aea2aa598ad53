"""The half period of sqrt(m) equals a full (P, Q) walk for every non-square
m < m_max.

Run: python tests/sweeps/half_period.py [m_max]   (default 2*10^5)
"""

import sys
from math import isqrt

from gmlattice.arith import is_square
from gmlattice.pell import _half_period


def main(m_max=2 * 10**5):
    bad, total = [], 0
    for m in range(2, m_max):
        if is_square(m):
            continue
        a0 = isqrt(m)
        p, q, a = 0, 1, a0
        period = []
        while a != 2 * a0:
            p = a * q - p
            q = (m - p * p) // q
            a = (a0 + p) // q
            period.append((a, q))
        s = len(period) // 2
        total += s
        if _half_period(m) != ([a for a, _ in period[:s]], [q for _, q in period[:s]], len(period) % 2 == 1):
            bad.append(m)
    assert not bad, bad[:10]
    print(total, 'half-period terms equal the full walk')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
