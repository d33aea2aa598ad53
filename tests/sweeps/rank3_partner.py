"""The closed-form rank-3 K3 partner equals hyperbolic_partner's for every
admissible d <= d_max with star2.  The check raises explicitly, so the
sweep also holds under python -O, with _rank3_plane's re-checks in place.

Run: python -O tests/sweeps/rank3_partner.py [d_max]   (default 2*10^6)
"""

import sys

from gmlattice.arith import two_square_decompositions
from gmlattice.lattice import hyperbolic_partner
from gmlattice.oracle import _local_flags, _rank3_plane, labelling_lattice


def main(d_max=2 * 10**6):
    bad, found = [], 0
    for d in range(2, d_max + 1, 2):
        if d % 8 in (0, 6) or not _local_flags(d)[1]:
            continue
        L = labelling_lattice(d)
        v, w, _, _ = _rank3_plane(L.gram, two_square_decompositions(d // 2))
        found += 1
        if w != hyperbolic_partner(L, v):
            bad.append(d)
    if bad:
        raise AssertionError(f"the partners differ at d = {bad[:10]}")
    print(found, 'rank-3 partners equal the hyperbolic_partner route')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
