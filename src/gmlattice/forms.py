"""Integral binary quadratic forms: Gauss reduction, representability,
and represented primes.

All searches are exhaustive inside exact ellipse bounds, so a negative
answer from ``represents`` is a proof of non-representability, while
``find_prime_1mod4`` reports bound exhaustion rather than absence.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import is_prime
from .errors import DomainError, ImprimitiveFormError, UnsupportedFormError
from .intmat import Matrix

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

    @classmethod
    def from_text(cls, text: str) -> "BinaryForm":
        parts = text.split()
        if len(parts) != 3:
            raise DomainError("binary form text must be three integers 'a b c'")
        return cls(*(int(p) for p in parts))

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


def _mat2_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def reduce_form(f: BinaryForm) -> tuple[BinaryForm, Matrix]:
    """Gauss-reduce a positive definite form.

    Returns (g, T) with T in SL2(Z) and g = f o T, i.e.
    g(x, y) = f(T00 x + T01 y, T10 x + T11 y); the discriminant is
    preserved and g is reduced (|b| <= a <= c, b >= 0 on the boundary).
    """
    if not f.is_positive_definite():
        raise UnsupportedFormError("reduction implemented for positive definite forms")
    a, b, c = f.a, f.b, f.c
    T = ((1, 0), (0, 1))
    while True:
        # shift b into (-a, a]
        r = (a - b) // (2 * a)
        if r:
            b2 = b + 2 * r * a
            c2 = a * r * r + b * r + c
            b, c = b2, c2
            T = _mat2_mul(T, ((1, r), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            T = _mat2_mul(T, ((0, -1), (1, 0)))
            continue
        break
    if a == c and b < 0:
        a, b, c = c, -b, a
        T = _mat2_mul(T, ((0, -1), (1, 0)))
    g = BinaryForm(a, b, c)
    assert g.is_reduced() and g.disc() == f.disc()
    return g, T


def _ellipse_bounds(f: BinaryForm, value: int) -> tuple[int, int]:
    """Exact per-coordinate bounds for f(x, y) <= value, f positive definite.

    From 4a f = (2ax + by)^2 + |disc| y^2 and symmetrically in x:
    x^2 <= 4c*value/|disc| and y^2 <= 4a*value/|disc|.
    """
    adisc = -f.disc()
    xb = isqrt((4 * f.c * value) // adisc)
    yb = isqrt((4 * f.a * value) // adisc)
    return xb, yb


def _ordered_range(bound: int):
    """0, 1, -1, 2, -2, ...: deterministic order preferring small witnesses."""
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def represents(f: BinaryForm, value: int):
    """A representation f(x, y) = value, or None (a proof of none).

    Exhaustive scan over the exact ellipse bounds, ordered so that small
    non-negative witnesses are found first.
    """
    if not f.is_positive_definite():
        raise UnsupportedFormError("representation search needs a positive definite form")
    if value < 0:
        raise DomainError("positive definite forms represent only non-negative values")
    if value == 0:
        return (0, 0)
    xb, yb = _ellipse_bounds(f, value)
    for x in _ordered_range(xb):
        for y in _ordered_range(yb):
            if f(x, y) == value:
                return (x, y)
    return None


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
        raise UnsupportedFormError("prime search needs a positive definite form")
    if not f.is_primitive():
        raise ImprimitiveFormError("prime search needs a primitive form")
    for stage in _STAGES:
        xb, yb = _ellipse_bounds(f, stage)
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
