"""The half period of sqrt(m) equals a full (P, Q) walk for every non-square
m < m_max, and the least unit built from it equals the convergent at the end
of that walk's first period.

The full walk keeps the division-based recurrence Q_{k+1} = (m - P_{k+1}^2) / Q_k
and its own linear convergents, so it shares nothing with _half_period's
division-free update or with _least_unit's row walk and product tree.

Run: python -O tests/sweeps/half_period.py [m_max]   (default 2*10^5)
"""

import sys
from math import isqrt

from gmlattice.arith import is_square
from gmlattice.pell import _half_period, _least_unit


def main(m_max=2 * 10**5):
    bad, total = [], 0
    for m in range(2, m_max):
        if is_square(m):
            continue
        a0 = isqrt(m)
        p, q, a = 0, 1, a0
        h_prev, h, k_prev, k = 1, a0, 0, 1
        period = []
        while True:
            p = a * q - p
            q = (m - p * p) // q
            a = (a0 + p) // q
            period.append((a, q))
            if a == 2 * a0:
                break
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
        s = len(period) // 2
        total += s
        half = _half_period(m)
        if half != ([a for a, _ in period[:s]], [q for _, q in period[:s]], len(period) % 2 == 1):
            bad.append(m)
        elif _least_unit(m, *half) != (h, k):  # (h_{l-1}, k_{l-1})
            bad.append(m)
    if bad:
        raise AssertionError(bad[:10])
    print(total, 'half-period terms equal the full walk')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
