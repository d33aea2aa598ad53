"""The half period of sqrt(m) equals a full (P, Q) walk for every non-square
m < m_max, and the least unit built from it equals the convergent at the end
of that walk's first period.  For m = 5 (mod 8) the same holds for the walk
of (1 + sqrt(m)) / 2, and its least unit eps_0 = (x + y sqrt(m)) / 2, or
eps_0^3 where x and y are odd, equals that convergent of sqrt(m).

The full walks keep the division-based recurrence Q_{k+1} = (m - P_{k+1}^2) / Q_k
and their own linear convergents, so they share nothing with _half_period's
division-free update or with _least_unit's row walk and product tree.

Run: python -O tests/sweeps/half_period.py [m_max]   (default 2*10^5)
"""

import sys
from math import isqrt

from gmlattice.arith import is_square
from gmlattice.pell import _half_period, _least_unit


def full_walk(m, p, q):
    """The period of (p + sqrt(m)) / q as [(a_k, Q_k)] for k = 1, ..., l,
    ended by the first Q_k = q, and (q A_{l-1} - p B_{l-1}, B_{l-1}) over
    its convergents A/B."""
    s = isqrt(m)
    p0, q0 = p, q
    a = (p + s) // q
    big_a, big_a1, big_b, big_b1 = a, 1, 1, 0
    period = []
    while True:
        p = a * q - p
        q = (m - p * p) // q
        a = (p + s) // q
        period.append((a, q))
        if q == q0:
            return period, (q0 * big_a - p0 * big_b, big_b)
        big_a, big_a1 = a * big_a + big_a1, big_a
        big_b, big_b1 = a * big_b + big_b1, big_b


def matches(half, period):
    """Whether half = (terms, qs, odd) is the first half of ``period``."""
    s = len(period) // 2
    return half == ([a for a, _ in period[:s]], [q for _, q in period[:s]], len(period) % 2 == 1)


def main(m_max=2 * 10**5):
    bad, total, omega = [], 0, 0
    for m in range(2, m_max):
        if is_square(m):
            continue
        period, unit = full_walk(m, 0, 1)  # (h_{l-1}, k_{l-1})
        total += len(period) // 2
        half = _half_period(m)
        if not matches(half, period) or _least_unit(m, *half) != unit:
            bad.append(m)
        if m % 8 != 5:
            continue
        period, (x, y) = full_walk(m, 1, 2)
        omega += len(period) // 2
        half = _half_period(m, 1, 2)
        if not matches(half, period) or _least_unit(m, *half, 2) != (x, y):
            bad.append(m)
        elif y % 2 == 0:
            if (x // 2, y // 2) != unit:
                bad.append(m)
        elif ((x**3 + 3 * m * x * y * y) // 8, (3 * x * x * y + m * y**3) // 8) != unit:
            bad.append(m)
    if bad:
        raise AssertionError(bad[:10])
    print(total, 'half-period terms equal the full walk, and', omega, 'of (1 + sqrt(m)) / 2')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
