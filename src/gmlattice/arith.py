"""Elementary exact number theory: factorization, primality, sums of two squares.

Everything here works on unbounded Python integers.  Discriminants, and
the values ``forms.find_prime_1mod4`` tests, go up to ``D_MAX = 10**11``,
so trial division runs to about 3.2 * 10**5.  ``prime_powers`` is the one
trial division that factors: ``factorize`` collects it into a dict, and a
caller that needs only part of the factorization stops reading it early.
``is_prime`` divides on its own, only up to the first factor.
The sums of two squares are built from the factorization in the Gaussian
integers, with no scan: each prime p = 1 (mod 4) costs one modular power
and a Euclid of about log p steps, and its splits pi**k conj(pi)**(e-k)
are stepped one from the next by an exact division by p.
"""

from collections.abc import Iterator
from itertools import count
from math import isqrt

# Largest discriminant the deciders accept, and the largest value
# forms.find_prime_1mod4 searches.  Solving P_{d/2}(-1) walks a period of
# sqrt(d/2) that grows like sqrt(d), and its solution can run to hundreds
# of thousands of bits; the README states the time budget measured up to
# this limit.
D_MAX = 10**11

__all__ = [
    "D_MAX",
    "factored_sum_of_two_squares",
    "factored_two_square_decompositions",
    "factorize",
    "is_prime",
    "is_square",
    "prime_powers",
    "two_square_decompositions",
    "xgcd",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    """Primality by trial division over 2, 3 and 6k +- 1, stopping at the
    first factor: for n up to D_MAX, the largest value
    ``forms.find_prime_1mod4`` asks about, it runs to about 3.2 * 10**5."""
    if n < 4:
        return n > 1
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """Yield (p, e) with p**e exactly dividing n >= 1, by increasing p.

    The package's one trial division that factors: 2, 3, then both
    members of each 6k +- 1 pair while the square of the smaller is at
    most what is left of n; what remains above 1 is prime.  A caller that
    stops reading stops the division there.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            yield p, e
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            for p in (f, f + 2):
                if n % p == 0:
                    e = 0
                    while n % p == 0:
                        e += 1
                        n //= p
                    yield p, e
        f += 6
    if n > 1:
        yield n, 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, {prime: exponent} by increasing prime."""
    return dict(prime_powers(n))


def factored_sum_of_two_squares(factors: dict[int, int]) -> bool:
    """True iff n > 0, given as its factorization {prime: exponent}, is a sum
    of two squares: every prime 3 (mod 4) divides n to an even power."""
    return all(e % 2 == 0 for p, e in factors.items() if p % 4 == 3)


def _prime_two_squares(p: int) -> tuple[int, int]:
    """(x, y) with x < y and x**2 + y**2 = p, for a prime p = 1 (mod 4).

    Hermite-Serret: r = c**((p-1)/4) mod p squares to -1 for the first c
    that is a non-residue, a prime since a product of residues is one, and
    Euclid on (p, r) reaches x as its first remainder below sqrt(p).
    """
    c = 2
    while (r := pow(c, (p - 1) // 4, p)) * r % p != p - 1:
        c = next(n for n in count(c + 1) if is_prime(n))
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    y = isqrt(p - b * b)
    if b * b + y * y != p:
        raise AssertionError(f"{b}^2 + {y}^2 != {p}")
    return min(b, y), max(b, y)


def factored_two_square_decompositions(factors: dict[int, int]) -> list[tuple[int, int]]:
    """Every pair (x, y) with 0 <= x <= y and x**2 + y**2 = n, by increasing
    x, for n >= 1 given as its factorization {prime: exponent} (an exponent
    may be 0).

    x + yi runs over the Gaussian integers of norm n up to units and
    conjugation: the product of (1+i)**e for 2, of q**(e/2) for each
    q = 3 (mod 4) (no pair if some such e is odd), and of one
    pi**k conj(pi)**(e-k), 0 <= k <= e, for each p = pi conj(pi) = 1 (mod 4).
    Those e + 1 splits are stepped in place: from conj(pi)**e, each step
    multiplies by pi**2 / p = pi / conj(pi), a division that is exact while
    conj(pi) still divides.
    """
    if not factored_sum_of_two_squares(factors):
        return []
    scale = 1
    zs = [(1, 0)]
    for p, e in factors.items():
        if p % 4 == 3:
            scale *= p ** (e // 2)
        elif p == 2:
            # (1+i)**2 = 2i, and a unit changes no pair
            scale <<= e // 2
            if e % 2:
                zs = [(u - v, u + v) for u, v in zs]
        else:
            x, y = _prime_two_squares(p)
            s, t = 1, 0
            for _ in range(e):
                s, t = s * x + t * y, t * x - s * y
            # pi**2 = c + di
            c, d = x * x - y * y, 2 * x * y
            splits = [(s, t)]
            for _ in range(e):
                s, t = (s * c - t * d) // p, (s * d + t * c) // p
                splits.append((s, t))
            zs = [(u * s - v * t, u * t + v * s) for u, v in zs for s, t in splits]
    pairs = set()
    for u, v in zs:
        u, v = abs(u) * scale, abs(v) * scale
        pairs.add((u, v) if u <= v else (v, u))
    return sorted(pairs)


def two_square_decompositions(n: int) -> list[tuple[int, int]]:
    """Every pair (x, y) with 0 <= x <= y and x**2 + y**2 = n, by increasing
    x: [(0, 0)] for n = 0, none for n < 0, and otherwise built from
    ``factorize(n)`` by ``factored_two_square_decompositions``."""
    if n < 1:
        return [(0, 0)] if n == 0 else []
    return factored_two_square_decompositions(factorize(n))
