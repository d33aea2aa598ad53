"""Integral binary quadratic forms: Gauss reduction, representability,
and represented primes.

Both searches run on the Gram ((2a, b), (b, 2c)) of the form, inside the
exact ellipse box of the lattice's definite norm search: a negative answer
from ``represents`` is a proof of non-representability, while
``find_prime_1mod4`` reports bound exhaustion rather than absence.
"""

from dataclasses import dataclass
from math import gcd

from . import intmat
from .arith import is_prime
from .errors import DomainError, LatticeError
from .intmat import Matrix
from .lattice import _definite_bounds, _definite_norm_vectors

__all__ = ["BinaryForm", "find_prime_1mod4", "reduce_form", "represents"]


@dataclass(frozen=True)
class BinaryForm:
    """The form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.disc() < 0 and self.a > 0

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not self.is_positive_definite():
            return False
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def is_primitive(self) -> bool:
        return self.content() == 1

    def to_text(self) -> str:
        return f"{self.a} {self.b} {self.c}"

    def __str__(self) -> str:
        def term(coeff, var):
            if coeff == 0:
                return ""
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            head = "" if mag == 1 else str(mag)
            return f" {sign} {head}{var}"

        s = term(self.a, "x^2") + term(self.b, "xy") + term(self.c, "y^2")
        s = s.strip()
        if s.startswith("+ "):
            s = s[2:]
        return s or "0"


def reduce_form(f: BinaryForm) -> tuple[BinaryForm, Matrix]:
    """Gauss-reduce a positive definite form.

    Returns (g, T) with T in SL2(Z) and g = f o T, i.e.
    g(x, y) = f(T00 x + T01 y, T10 x + T11 y); the discriminant is
    preserved and g is reduced (|b| <= a <= c, b >= 0 on the boundary).
    """
    if not f.is_positive_definite():
        raise LatticeError("reduction implemented for positive definite forms")
    a, b, c = f.a, f.b, f.c
    T = intmat.identity(2)
    while True:
        # shift b into (-a, a]
        r = (a - b) // (2 * a)
        if r:
            b, c = b + 2 * r * a, a * r * r + b * r + c
            T = intmat.mat_mul(T, ((1, r), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            T = intmat.mat_mul(T, ((0, -1), (1, 0)))
            continue
        break
    if a == c and b < 0:
        a, b, c = c, -b, a
        T = intmat.mat_mul(T, ((0, -1), (1, 0)))
    g = BinaryForm(a, b, c)
    assert g.is_reduced() and g.disc() == f.disc()
    return g, T


def _gram(f: BinaryForm) -> Matrix:
    """Gram of f: (x, y) G (x, y)^t = 2 f(x, y)."""
    return ((2 * f.a, f.b), (f.b, 2 * f.c))


def represents(f: BinaryForm, value: int):
    """A representation f(x, y) = value, or None (a proof of none).

    The complete list comes from the lattice's definite norm search for
    2 value on the Gram of f; the first by x and then y in the order
    0, 1, -1, 2, -2, ... is returned, so small non-negative witnesses win.
    """
    if not f.is_positive_definite():
        raise LatticeError("representation search needs a positive definite form")
    if value < 0:
        raise DomainError("positive definite forms represent only non-negative values")
    # 2|k| - (k > 0) ranks k in the order 0, 1, -1, 2, -2, ...
    return min(
        _definite_norm_vectors(_gram(f), 2 * value),
        key=lambda v: tuple(2 * abs(k) - (k > 0) for k in v),
        default=None,
    )


# largest value find_prime_1mod4 searches, and the values it searches up to
# in turn, so that a small prime is found without scanning the largest box
PRIME_CAP = 10**6
_STAGES = (256, 4096, 65536, PRIME_CAP)


def find_prime_1mod4(f: BinaryForm):
    """Smallest prime p = 1 (mod 4) represented by f, at most PRIME_CAP,
    with a witness (p, x, y); None means the cap was exhausted, never that
    no such prime exists.  The witness is the first that ``represents``
    finds for p.
    """
    if not f.is_positive_definite():
        raise LatticeError("prime search needs a positive definite form")
    if not f.is_primitive():
        raise LatticeError("prime search needs a primitive form")
    for stage in _STAGES:
        xb, yb = _definite_bounds(_gram(f), 2 * stage)
        best = None
        prime_cache: dict[int, bool] = {}
        for x in range(-xb, xb + 1):
            for y in range(-yb, yb + 1):
                v = f(x, y)
                if v > stage or v % 4 != 1 or v < 5:
                    continue
                if best is not None and v >= best:
                    continue
                if v not in prime_cache:
                    prime_cache[v] = is_prime(v)
                if prime_cache[v]:
                    best = v
        if best is not None:
            return (best, *represents(f, best))
    return None
