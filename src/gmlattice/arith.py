"""Elementary exact number theory: factorization, primality, sums of two squares.

Everything here works on unbounded Python integers.  Discriminants go up
to ``oracle.D_MAX = 10**11``, so trial division runs to about 3.2 * 10**5
and the two-squares scan of the K3 witness (n = d/2) to about 1.6 * 10**5
steps.
"""

from math import isqrt

__all__ = [
    "factored_sum_of_two_squares",
    "factorize",
    "is_prime",
    "is_square",
    "two_square_decomposition",
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
    """Primality by the trial division of ``factorize``: its one caller,
    ``forms.find_prime_1mod4``, asks about values up to ``forms.PRIME_CAP``,
    so the division stops at 1000."""
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factored_sum_of_two_squares(factors: dict[int, int]) -> bool:
    """True iff n > 0, given as its factorization {prime: exponent}, is a sum
    of two squares: every prime 3 (mod 4) divides n to an even power."""
    return all(e % 2 == 0 for p, e in factors.items() if p % 4 == 3)


def two_square_decompositions(n: int):
    """Yield every pair (x, y) with 0 <= x <= y and x**2 + y**2 = n, by
    increasing x.

    Direct scan over x <= isqrt(n/2), so sqrt(n/2) steps: the K3 witness
    calls it with n = d/2 up to 5 * 10**10 (d <= D_MAX = 10**11), about
    158000 steps.
    """
    if n < 0:
        return
    for x in range(isqrt(n // 2) + 1):
        r = n - x * x
        y = isqrt(r)
        if y * y == r:
            yield (x, y)


def two_square_decomposition(n: int) -> tuple[int, int] | None:
    """A pair (x, y) with x <= y and x**2 + y**2 = n, or None."""
    return next(two_square_decompositions(n), None)
