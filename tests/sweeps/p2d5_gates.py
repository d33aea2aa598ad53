"""The star2 gate on P_(d/2)(-1) and the P_2d(5) read off sqrt(d/2) never
contradict the walks for d <= d_max, and the one early-stopping pass of
_local_flags equals the flags read off the whole factorization.  The checks
raise explicitly, so the sweep also holds under python -O.

Run: python -O tests/sweeps/p2d5_gates.py [d_max]   (default 2*10^5)
"""

import sys

from gmlattice.arith import factored_sum_of_two_squares, factorize
from gmlattice.oracle import _local_flags, classify
from gmlattice.pell import negative_pell, pell_solvable


def main(d_max=200000):
    bad = []
    for d in range(1, d_max + 1):
        f = factorize(d)
        twisted = factored_sum_of_two_squares(f)
        star2 = d % 8 != 0 and all(p % 4 != 3 for p in f)
        if _local_flags(d) != ((f if twisted else None), star2, twisted):
            bad.append(d)
    if bad:
        raise AssertionError(f"_local_flags differs from the factorization at d = {bad[:10]}")
    bad = [d for d in range(2, d_max + 1, 2) if pell_solvable(d // 2, -1) and not _local_flags(d)[1]]
    if bad:
        raise AssertionError(bad[:10])
    bad = []
    for d in range(1, d_max + 1):
        rep = classify(d, with_witnesses=False)
        if d % 2:
            expect = (None, None)
        else:
            sol = negative_pell(d // 2)
            expect = (sol, None if sol is None else not pell_solvable(2 * d, 5))
        if (rep.star3, rep.dm_isomorphic) != expect:
            bad.append(d)
    if bad:
        raise AssertionError(bad[:10])


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
