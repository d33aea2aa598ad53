"""find_prime_1mod4 equals a brute ellipse scan on seeded forms, and
lemma_checks finds a prime for every definite rank-4 draw with an odd pairing
among draws in [-10^4, 10^4]^4.  The checks raise explicitly, so the sweep
also holds under python -O.

Run: python -O tests/sweeps/prime_1mod4.py [forms draws]   (default 5000 1000)
"""

import sys
from math import isqrt
from random import Random

from gmlattice import BinaryForm, find_prime_1mod4, lemma_checks, qform_rank4
from gmlattice.arith import is_prime


def main(forms=5000, draws=1000):
    rng = Random(27)
    bad, absent, done = [], 0, 0
    while done < forms:
        f = BinaryForm(rng.randint(1, 60), rng.randint(-60, 60), rng.randint(1, 60))
        if not (f.is_positive_definite() and f.is_primitive()):
            continue
        done += 1
        got = find_prime_1mod4(f)
        bound = 2000 if got is None else got[0]
        xb, yb = (isqrt(4 * k * bound // -f.disc()) for k in (f.c, f.a))
        values = {f(x, y) for x in range(-xb, xb + 1) for y in range(-yb, yb + 1)}
        least = min((v for v in values if v <= bound and v % 4 == 1 and is_prime(v)), default=None)
        if least != (got and got[0]) or (got and f(*got[1:]) != got[0]):
            bad.append(f)
        # f(x, y) mod 4 depends on (x, y) mod 4 alone: None iff no value is 1 (mod 4)
        if (got is None) == (1 in {f(x, y) % 4 for x in range(4) for y in range(4)}):
            bad.append(f)
        absent += got is None
    if bad:
        raise AssertionError(bad[:10])
    if not 0 < absent < done:
        raise AssertionError(absent)
    rng = Random(6)
    definite = 0
    for _ in range(draws):
        qa = qform_rank4(*(rng.randint(-10**4, 10**4) for _ in range(4)))
        if qa.is_positive_definite() and not all(v % 2 == 0 for v in (qa.k, qa.l, qa.m, qa.n)):
            definite += 1
            rep = lemma_checks(qa)
            if rep.prime_status != 'found':
                bad.append(qa)
    if bad:
        raise AssertionError(bad[:10])
    print(done, 'forms,', absent, 'with no prime 1 (mod 4);', definite, 'definite rank-4 draws, each found')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
