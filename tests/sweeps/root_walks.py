"""The root walks of pell_solvable and pell_general agree for non-square
m < m_max and 0 < |c| <= c_max, and pell_general equals an n-scan wherever
the unit bound is at most scan_max.

Run: python -O tests/sweeps/root_walks.py [m_max c_max scan_max]
(default 400 60 10^5, which decide 45600 pairs and scan 41670)
"""

import sys
from math import isqrt

from gmlattice.arith import is_square
from gmlattice.pell import _continuant, cf_sqrt, pell_general, pell_solvable


def main(m_max=400, c_max=60, scan_max=10**5, expect=(45600, 41670)):
    pairs = scanned = 0
    bad = []
    for m in range(2, m_max):
        if is_square(m):
            continue
        # the unit of P_m(1) from the continuant over one period (two when
        # odd), independent of the half-period formulas pell_general uses
        period = cf_sqrt(m)[1]
        x1 = _continuant([isqrt(m)] + (period * (1 + len(period) % 2))[:-1])[0]
        for c in range(-c_max, c_max + 1):
            if c == 0:
                continue
            got = [s.as_pair() for s in pell_general(m, c)]
            pairs += 1
            if pell_solvable(m, c) != bool(got):
                bad.append((m, c))
            n_bound = isqrt(abs(c) * (x1 + 1) // 2) + 1
            if n_bound <= scan_max:
                scanned += 1
                scan = [(n, isqrt((n * n - c) // m)) for n in range(n_bound + 1) if n * n >= c and (n * n - c) % m == 0 and is_square((n * n - c) // m)]
                if got != scan:
                    bad.append((m, c))
    if bad:
        raise AssertionError(bad[:10])
    if (pairs, scanned) != expect:
        raise AssertionError((pairs, scanned))
    print(pairs, 'pairs decided,', scanned, 'against the n-scan')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
