"""Integral binary quadratic forms: Gauss reduction, representability,
and represented primes.

``represents`` runs the lattice's norm search on the Gram
((2a, b), (b, 2c)) of the reduced form, inside the box of its ellipse,
which completing the square gives in closed form, so a None is a proof
of non-representability.  ``find_prime_1mod4`` decides exactly
whether a primitive positive definite form represents a prime 1 (mod 4),
from the form mod 4, and finds the least one by walking its values upward.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from math import gcd, isqrt

from . import intmat
from .arith import D_MAX, is_prime
from .errors import DomainError, LatticeError
from .intmat import Matrix
from .lattice import _norm_solutions

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
    if not (g.is_reduced() and g.disc() == f.disc()):
        raise AssertionError(f"{g} is not a reduced form of {f}")
    return g, T


def _gram(f: BinaryForm) -> Matrix:
    """Gram of f: (x, y) G (x, y)^t = 2 f(x, y)."""
    return ((2 * f.a, f.b), (f.b, 2 * f.c))


def represents(f: BinaryForm, value: int):
    """A representation f(x, y) = value, or None (a proof of none).

    The complete list comes from the lattice's norm search for 2 value on
    the Gram of the reduced form g, mapped back by its transform; the
    first by x and then y in the order 0, 1, -1, 2, -2, ... is returned,
    so small non-negative witnesses win.  The search box is g's ellipse
    g(x, y) <= value: 4a g(x, y) = (2ax + by)^2 + |D| y^2 gives
    |y| <= sqrt(4a value / |D|), and 4c g(x, y) likewise
    |x| <= sqrt(4c value / |D|).
    """
    if not f.is_positive_definite():
        raise LatticeError("representation search needs a positive definite form")
    if value < 0:
        raise DomainError("positive definite forms represent only non-negative values")
    # the solutions are T w for the solutions w of the reduced form g, whose
    # norm search scans its first coordinate: give it y, the shorter axis;
    # 2|k| - (k > 0) ranks k in the order 0, 1, -1, 2, -2, ...
    g, T = reduce_form(f)
    (p, q), (r, s) = T
    adisc = -g.disc()
    box = [isqrt(4 * g.a * value // adisc), isqrt(4 * g.c * value // adisc)]
    vectors = _norm_solutions(_gram(BinaryForm(g.c, g.b, g.a)), 2 * value, box)
    return min(
        ((p * x + q * y, r * x + s * y) for y, x in vectors),
        key=lambda v: tuple(2 * abs(k) - (k > 0) for k in v),
        default=None,
    )


def find_prime_1mod4(f: BinaryForm):
    """Smallest prime p = 1 (mod 4) represented by the primitive positive
    definite f, with the witness (p, x, y) that ``represents`` finds for
    p; None is a proof that f represents no such prime.

    f(x, y) mod 4 depends only on (x, y) mod 4, so None comes back at once
    iff no f(x, y) with x, y in {0, 1, 2, 3} is 1 (mod 4).  Otherwise f
    represents infinitely many primes 1 (mod 4).  Take f(x, y) = 1 (mod 4);
    by CRT, (x, y) can be moved, fixed mod 4, so that f(x, y) is prime to
    the discriminant D (mod an odd prime of D the primitive f is a nonzero
    form, so it has a nonzero value), and dividing (x, y) by its gcd g,
    odd since g^2 divides the odd f(x, y), changes f(x, y) by g^2 = 1
    (mod 8).  So f properly represents some m = 1 (mod 4) prime to D: m is
    the norm of an ideal a, prime to 4D, in the class of f in the order of
    discriminant D in K = Q(sqrt D).  Let L be that order's ring class
    field.  The Artin symbol of a in the abelian L(i)/K is the class of f
    on L and the symbol of m, trivial, on Q(i); by Chebotarev infinitely
    many degree-1 primes of K share it, and their norms are primes
    p = 1 (mod 4) that f represents (Weber's theorem, refined by Chebotarev
    density; Cox, *Primes of the Form x^2 + ny^2*, section 9).

    The search walks the values of the Gauss-reduced form g upward.  As
    g(x, y) = g(-x, -y), it takes y >= 0, and (1, 0) is the one coprime
    pair with y = 0.  From the vertex of row y, one walker runs each way
    in each class x = r (mod 4) with g(r, y) = 1 (mod 4), so every value
    popped is 1 (mod 4) and the values of a walker increase; row y is
    opened before any value past its least, |D| y^2 / 4a.  Only coprime
    (x, y) are tested, since only those can give a prime.  Raises
    DomainError when no such prime is at most D_MAX.
    """
    if not f.is_positive_definite():
        raise LatticeError("prime search needs a positive definite form")
    if not f.is_primitive():
        raise LatticeError("prime search needs a primitive form")
    if all(f(x, y) % 4 != 1 for x in range(4) for y in range(4)):
        return None
    g, _ = reduce_form(f)
    a, b, adisc = g.a, g.b, -g.disc()
    heap = [(a, 1, 0, 0)] if a % 4 == 1 else []
    y = 1
    while True:
        while not heap or adisc * y * y <= 4 * a * heap[0][0]:
            vertex = -(b * y // (2 * a))
            for x in range(vertex, vertex + 4):
                if g(x, y) % 4 == 1:
                    heappush(heap, (g(x, y), x, y, 4))
                    heappush(heap, (g(x - 4, y), x - 4, y, -4))
            y += 1
        v, x, row, step = heappop(heap)
        if v > D_MAX:
            raise DomainError(f"{f} represents no prime 1 (mod 4) up to the supported limit D_MAX = {D_MAX}")
        if gcd(x, row) == 1 and is_prime(v):
            return (v, *represents(f, v))
        if step:
            heappush(heap, (g(x + step, row), x + step, row, step))
