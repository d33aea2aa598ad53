"""Pell-type equations n^2 - m*a^2 = c solved through continued fractions.

Everything runs on one recurrence: the (P_k, Q_k) expansion of sqrt(m),
whose terms stay below 2 sqrt(m), so it is small-integer work even where
the solutions have thousands of digits.  The convergents h/q of sqrt(m)
satisfy

    h_{k-1}^2 - m q_{k-1}^2 = (-1)^k Q_k

(Jacobson & Williams, *Solving the Pell Equation*, 2009).  The period l of
sqrt(m) is a palindrome, a_k = a_{l-k} and Q_k = Q_{l-k}, closed by
a_l = 2 a_0 and Q_l = 1, so the recurrence stops at its middle: the first
Q_{s+1} = Q_s means l = 2s + 1, the first P_{s+1} = P_s means l = 2s.
The walk returns the half as two plain int lists, a_1, ..., a_s and
Q_1, ..., Q_s, with no tuple built per term; only ``cf_sqrt``, which
returns the whole period, mirrors it.

So the negative Pell equation P_m(-1) is solvable exactly when the period
is odd (plus the degenerate case m = 1), and for c^2 < m, where every
primitive solution is a convergent (Lagrange), P_m(c) is solvable exactly
when c / g^2 equals some (-1)^k Q_k for a square g^2 dividing c: the walk
for P_m(-1) hands its Q_k on, so ``classify`` reads P_{2d}(5) off the Q_k
of the walk for P_{d/2}(-1).  The solution of P_m(-1) is the convergent at k = l - 1;
with A_i = [[a_i, 1], [1, 0]] its matrix A_0 A_1 ... A_{l-1} is
(A_0 B) B^T for B = A_1 ... A_s, which gives it from the convergents at
s and s - 1: n = h_s q_s + h_{s-1} q_{s-1}, a = q_s^2 + q_{s-1}^2.  The
numerators are the walk's own P and Q times the denominators,

    h_k = P_{k+1} q_k + Q_{k+1} q_{k-1},

and Q_{s+1} = Q_s gives P_{s+1}^2 = m - Q_s^2, so

    n = P_{s+1} (q_s^2 - q_{s-1}^2) + 2 Q_s q_s q_{s-1},  a = q_s^2 + q_{s-1}^2

from (q_s, q_{s-1}), the top row of B, which needs no a_0.  At an even
period l = 2s the least unit of P_m(1) comes from the middle too, as
(h_{s-1} + q_{s-1} sqrt(m))^2 / Q_s with h_{s-1} = P_s q_{s-1} + Q_s q_{s-2}
(``_least_unit``).  The top row is a row walk over the first _LEAF terms,
carried down the left spine of a balanced product tree over the rest,
whose leaves are linear walks too, so the tree multiplies big integers
only with others of the same size.

For m = 5 (mod 8) past _OMEGA_MIN ``negative_pell`` walks (1 + sqrt(m)) / 2,
the same recurrence from (P_0, Q_0) = (1, 2), with convergents A/B and
(2 A_{k-1} - B_{k-1})^2 - m B_{k-1}^2 = (-1)^k 2 Q_k.  The same midpoint
formulas, by 2 A_k - B_k = P_{k+1} B_k + Q_{k+1} B_{k-1}, give the least
unit eps_0 = (x + y sqrt(m)) / 2 of Z[(1 + sqrt(m)) / 2].  2 is inert in
Q(sqrt(m)), so the units of Z[sqrt(m)] have index 1 or 3 in those of
Z[(1 + sqrt(m)) / 2]: the least unit of Z[sqrt(m)] is eps_0 when x and
y are even, else eps_0^3, and its norm is that of eps_0.  At index 3 the
period of (1 + sqrt(m)) / 2 is about a third of that of sqrt(m).  On the
benchmark's primes p = 5 (mod 8) in [5*10^4, 2*10^5), 67% have index 3,
and ``negative_pell`` takes 16 us where the walk of sqrt(p) took 31 us
(Python 3.11.7, shared 2-vCPU host); at p = 49999999957 it takes 57 ms
against 108 ms.  Its Q_k are twice the norms of the reduced principal
ideals, so P_m(5) is read off as some Q_k = 10, with at index 1 the
parity of B_{k-1} (``oracle._p2d5_unsolvable``).

``pell_solvable`` and ``pell_general`` answer every c by
the same recurrence started at (z + sqrt(m)) / |c / g^2|, one walk per
root z of z^2 = m (mod c / g^2) (Lagrange, Matthews and Mollin;
K. R. Matthews, *Expo. Math.* 18, 2000): the first is the walks alone,
the second builds by the tree one solution per class they find.
"""

from dataclasses import dataclass
from math import isqrt

from .arith import is_square
from .errors import DomainError

__all__ = [
    "PellSolution",
    "cf_sqrt",
    "negative_pell",
    "pell_general",
    "pell_solvable",
]

# partial quotients walked linearly: the row of _denominators, and each
# leaf of the product tree before it merges
_LEAF = 512

# negative_pell walks (1 + sqrt(m)) / 2 for m = 5 (mod 8) above this bound:
# there 5 < sqrt(m) / 2, so every element of norm +-5 of Z[(1 + sqrt(m)) / 2]
# shows as a Q_k = 10 of that walk (see oracle._p2d5_unsolvable)
_OMEGA_MIN = 100

# largest |c| that pell_general accepts
C_MAX = 10**6


@dataclass(frozen=True, init=False)
class PellSolution:
    """Non-negative integers with n^2 - m*a^2 = c."""

    n: int
    a: int
    m: int
    c: int

    def __init__(self, n: int, a: int, m: int, c: int):
        # every field in one store, where the generated __init__ of a
        # frozen dataclass pays one object.__setattr__ per field
        object.__setattr__(self, "__dict__", {"n": n, "a": a, "m": m, "c": c})
        if n < 0 or a < 0:
            raise DomainError(f"({n}, {a}) is not a pair of non-negative integers")
        if n * n - m * a * a != c:
            raise DomainError(f"({n}, {a}) does not solve n^2 - {m} a^2 = {c}")

    def as_pair(self) -> tuple[int, int]:
        return (self.n, self.a)

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a}


def _half_period(m: int, p0: int = 0, q0: int = 1) -> tuple[list[int], list[int], bool]:
    """([a_1, ..., a_s], [Q_1, ..., Q_s], l odd) for the period l of
    (p0 + sqrt(m)) / q0, m >= 2 not a square and q0 | m - p0^2: sqrt(m)
    by default, (1 + sqrt(m)) / 2 at (1, 2).  P_{k+1} = a_k Q_k - P_k,
    Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}), which is (m - P_{k+1}^2) / Q_k
    with no division (Q_{-1} = (m - p0^2) / q0), a_k = (a + P_k) // Q_k
    for a = isqrt(m), stopped at the middle, the first k = s with
    Q_{s+1} = Q_s (l = 2s + 1) or P_{s+1} = P_s (l = 2s).  The terms and
    the Q_k go to two int lists, with no tuple built per term."""
    if m < 2:
        raise DomainError("the continued fraction of sqrt(m) needs m >= 2")
    if is_square(m):
        raise DomainError(f"sqrt({m}) is an integer, no period")
    a0 = isqrt(m)
    p, q, q_prev = p0, q0, (m - p0 * p0) // q0
    a = (a0 + p) // q
    terms, qs = [], []
    while True:
        p_next = a * q - p
        q_next = q_prev + a * (p - p_next)
        if q_next == q:
            return terms, qs, True
        if p_next == p:
            return terms, qs, False
        p, q, q_prev = p_next, q_next, q
        a = (a0 + p) // q
        terms.append(a)
        qs.append(q)


def _denominators(terms: list[int]) -> tuple[int, int]:
    """(q_k, q_{k-1}) for terms = [a_1, ..., a_k], the top row of the
    product of [[a, 1], [1, 0]] over ``terms``: a row walk over the first
    _LEAF terms, then carried down the left spine of the tree over the
    rest, row times matrix, four products where a matrix merge takes eight."""
    c, c1 = 1, 0
    for a in terms[:_LEAF]:
        c, c1 = a * c + c1, c
    level = _leaves(terms[_LEAF:])
    while level:
        w, x, y, z = level[0]
        c, c1 = c * w + c1 * y, c * x + c1 * z
        level = _merged(level[1:])
    return c, c1


def _continuant(terms: list[int]) -> tuple[int, int, int, int]:
    """(w, x, y, z) with [[w, x], [y, z]] the product of [[a, 1], [1, 0]]
    over ``terms``: linear walks over leaves of _LEAF terms, merged
    pairwise in a balanced tree."""
    level = _leaves(terms)
    while len(level) > 1:
        level = _merged(level)
    return level[0]


def _leaves(terms: list[int]) -> list[tuple[int, int, int, int]]:
    """The product of [[a, 1], [1, 0]] over each run of _LEAF terms, as
    (w, x, y, z), by a linear walk."""
    level = []
    for i in range(0, len(terms), _LEAF):
        w, x, y, z = 1, 0, 0, 1
        for a in terms[i : i + _LEAF]:
            w, x = a * w + x, w
            y, z = a * y + z, y
        level.append((w, x, y, z))
    return level


def _merged(level: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """One level of the tree: neighbours multiplied pairwise, an odd last
    matrix carried up as it is."""
    merged = [
        (w * w2 + x * y2, w * x2 + x * z2, y * w2 + z * y2, y * x2 + z * z2)
        for (w, x, y, z), (w2, x2, y2, z2) in zip(level[::2], level[1::2])
    ]
    return merged + level[len(merged) * 2 :]


def cf_sqrt(m: int) -> tuple[int, list[int]]:
    """Continued fraction sqrt(m) = [a0; period...], minimal period: the
    half period a_1, ..., a_s, its mirror, and a_l = 2 a_0."""
    terms, _, odd = _half_period(m)
    a0 = isqrt(m)
    return a0, terms + (terms if odd else terms[:-1])[::-1] + [2 * a0]


def negative_pell(m: int) -> PellSolution | None:
    """Fundamental solution of n^2 - m*a^2 = -1, or None if unsolvable.

    For m = 5 (mod 8) past _OMEGA_MIN the walk is of (1 + sqrt(m)) / 2,
    elsewhere of sqrt(m).  Solvable iff the walked period l is odd,
    l = 2s + 1: only the half period a_1, ..., a_s is computed, a row walk
    and the product tree give the denominators q_s and q_{s-1}, and the
    midpoint formula of ``_least_unit`` gives the least unit of norm -1.
    From sqrt(m) that is the solution.  From (1 + sqrt(m)) / 2 it is
    eps_0 = (x + y sqrt(m)) / 2, the least unit of Z[(1 + sqrt(m)) / 2]:
    2 is inert there, so the units of Z[sqrt(m)] have index 1 or 3 in its
    units, and the solution is (x / 2, y / 2) when x and y are even, else
    eps_0^3 = ((x^3 + 3 m x y^2) / 8, (3 x^2 y + m y^3) / 8).  At index 3
    this period is about a third as long as that of sqrt(m).
    Perfect squares are handled outside the continued-fraction path:
    n^2 - s^2 a^2 = -1 factors as (n - sa)(n + sa) = -1, solvable only for
    s = 1 with (n, a) = (0, 1).
    """
    return _negative_pell(m)[0]


def _negative_pell(m: int) -> tuple[PellSolution | None, tuple | None]:
    """(negative_pell(m), the walk it read), the walk (terms, qs, q0,
    cubed): the half period of (q0 - 1 + sqrt(m)) / q0 from
    ``_half_period`` and whether the solution is eps_0^3, or None where
    m is a square and nothing was walked."""
    if m < 1:
        raise DomainError("negative_pell expects m >= 1")
    if is_square(m):
        return (PellSolution(0, 1, 1, -1) if m == 1 else None), None
    start = (1, 2) if m % 8 == 5 and m > _OMEGA_MIN else (0, 1)
    terms, qs, odd = _half_period(m, *start)
    q0, cubed = start[1], False
    if not odd:
        return None, (terms, qs, q0, cubed)
    n, a = _least_unit(m, terms, qs, odd, q0)
    if q0 == 2:
        # (n + a sqrt(m)) / 2 is eps_0; the solution is eps_0 or eps_0^3
        cubed = a % 2 == 1
        if cubed:
            n2, a2 = n * n, a * a
            n, a = n * (n2 + 3 * m * a2) >> 3, a * (3 * n2 + m * a2) >> 3
        else:
            n, a = n >> 1, a >> 1
    return PellSolution(n, a, m, -1), (terms, qs, q0, cubed)


def _least_unit(m: int, terms: list[int], qs: list[int], odd: bool, q0: int = 1) -> tuple[int, int]:
    """(q0 A_{l-1} - P_0 B_{l-1}, B_{l-1}) over the convergents A/B of the
    walked (P_0 + sqrt(m)) / q0, from its half period
    ``_half_period(m, P_0, q0)`` = (terms, qs, odd) alone: for sqrt(m) the
    least solution (h_{l-1}, q_{l-1}) of h^2 - m q^2 = (-1)^l, for
    (1 + sqrt(m)) / 2 the (x, y) of its least unit (x + y sqrt(m)) / 2.

    Both come from the denominators q_k and Q_s = qs[-1] alone (Q_0 = q0
    when s = 0), with no numerator built, by
    q0 A_k - P_0 B_k = P_{k+1} B_k + Q_{k+1} B_{k-1}; written here for
    sqrt(m), h = A, q = B, and the same formulas hold for either start.
    Odd l = 2s + 1: the midpoint formula of the module docstring,
    h = P_{s+1} (q_s^2 - q_{s-1}^2) + 2 Q_s q_s q_{s-1},
    q = q_s^2 + q_{s-1}^2, with P_{s+1} = sqrt(m - Q_s^2).  Even l = 2s:
    alpha = h_{s-1} + q_{s-1} sqrt(m) has norm (-1)^s Q_s, and
    P_{s+1} = P_s makes the ideal (alpha) equal to its conjugate, so the
    unit alpha / alpha' = alpha^2 / ((-1)^s Q_s) is, up to sign, the one
    at the end of the period:
    h = (h_{s-1}^2 + m q_{s-1}^2) / Q_s, q = 2 h_{s-1} q_{s-1} / Q_s, where
    h_{s-1} = P_s q_{s-1} + Q_s q_{s-2} and P_{s+1} = a_s Q_s - P_s gives
    P_s = a_s Q_s / 2.
    """
    big_q = qs[-1] if qs else q0
    if odd:
        q, q_prev = _denominators(terms)
        p = isqrt(m - big_q * big_q)
        q2, q_prev2 = q * q, q_prev * q_prev
        return p * (q2 - q_prev2) + 2 * big_q * q * q_prev, q2 + q_prev2
    q, q_prev = _denominators(terms[:-1])
    h = terms[-1] * big_q // 2 * q + big_q * q_prev
    return (h * h + m * q * q) // big_q, 2 * h * q // big_q


def _square_pell(s: int, c: int) -> list[PellSolution]:
    """All non-negative solutions of n^2 - s^2 a^2 = c via (n-sa)(n+sa) = c."""
    sols = set()
    for e in range(1, isqrt(abs(c)) + 1):
        if abs(c) % e:
            continue
        f = abs(c) // e
        pairs = [(e, f), (-f, -e)] if c > 0 else [(-e, f), (-f, e)]
        for lo, hi in pairs:
            if (lo + hi) % 2:
                continue
            n = (lo + hi) // 2
            diff = hi - lo
            if n < 0 or diff % (2 * s):
                continue
            sols.add((n, diff // (2 * s)))
    return [PellSolution(n, a, s * s, c) for n, a in sorted(sols)]


def _primitive_targets(c: int) -> dict[int, int]:
    """{c / g^2: g} over the squares g^2 dividing c: a solution (n, a) with
    gcd(n, a) = g is g times a primitive solution for c / g^2."""
    return {c // (g * g): g for g in range(1, isqrt(abs(c)) + 1) if c % (g * g) == 0}


def _check(name: str, m: int, c: int) -> None:
    if m < 1:
        raise DomainError(f"{name} expects m >= 1")
    if c == 0:
        raise DomainError(f"{name} expects c != 0")
    if abs(c) > C_MAX:
        raise DomainError(f"|c| = {abs(c)} exceeds the supported limit C_MAX = {C_MAX}")


def _classes(m: int, c: int, odd: bool):
    """(g, |n|, z, [a_0, ..., a_{i-1}], flip) for each solvable class of
    primitive solutions of x^2 - m y^2 = n = c / g^2, m not a square and
    odd the parity of the period of sqrt(m).

    Such a solution has x = z y (mod |n|) for one root z of z^2 = m
    (mod |n|), -|n|/2 < z <= |n|/2.  The (P, Q) recurrence of
    (z + sqrt(m)) / |n|, a = floor((P + sqrt(m)) / Q) for either sign of Q,
    reaches Q_i = +-1 at some i >= 1 iff that class is solvable, and then
    G = |n| A_{i-1} - z B_{i-1} over its convergents A/B has
    G^2 - m B_{i-1}^2 = (-1)^i Q_i |n|; else it stops where its first
    reduced (P, Q) recurs.  flip: the norm is -n, which only the solution
    of P_m(-1) turns into n."""
    s = isqrt(m)
    for n, g in _primitive_targets(c).items():
        k = abs(n)
        for z in range(-((k - 1) // 2), k // 2 + 1):
            if (z * z - m) % k:
                continue
            p, q, terms, first = z, k, [], None
            while True:
                if p <= s and s - p < q <= s + p:  # (p + sqrt(m)) / q is reduced
                    if (p, q) == first:
                        break
                    first = first or (p, q)
                a = (p + s + (q < 0)) // q
                terms.append(a)
                p = a * q - p
                q = (m - p * p) // q
                if q * q == 1:
                    flip = (-1) ** len(terms) * q * k != n
                    if odd or not flip:
                        yield g, k, z, terms, flip
                    break


def pell_solvable(m: int, c: int) -> bool:
    """Whether n^2 - m*a^2 = c has an integer solution, as bool(pell_general).

    For non-square m the answer comes from the (P, Q) walks of
    ``_classes`` alone, with no convergent built: some class reaches the
    norm c / g^2, or its negative when the period of sqrt(m) is odd.  The
    parity is needed only at the first class that reaches the negative,
    and an even period rules out every later one.  A class of norm +-1
    starts at z = 0, so its walk is the continued fraction of sqrt(m),
    which first reaches Q = 1 at the end of the period: its length is the
    period, and only another class walks the parity by ``_half_period``.
    Perfect-square m factors c.
    """
    _check("pell_solvable", m, c)
    if is_square(m):
        return bool(_square_pell(isqrt(m), c))
    odd = None
    for _, k, _, terms, flip in _classes(m, c, True):
        if not flip:
            return True
        if odd is None:
            odd = len(terms) % 2 == 1 if k == 1 else _half_period(m)[2]
        if odd:
            return True
    return False


def pell_general(m: int, c: int) -> list[PellSolution]:
    """Every solution of n^2 - m*a^2 = c with n, a >= 0 and
    n <= sqrt(|c| (x1 + 1) / 2) + 1, (x1, y1) the fundamental unit of
    P_m(1), so at least one of each class; [] means unsolvable.

    Each class of ``_classes`` gives one solution by the product tree,
    times the solution of P_m(-1) where its norm is -c / g^2.  Division by
    x1 + y1 sqrt(m) steps it down to the least n of its orbit, and the unit
    multiples of that and of its conjugate are kept up to the bound.
    Perfect-square m reduces to factoring c, as in P_4(5) at d = 2.
    """
    _check("pell_general", m, c)
    if is_square(m):
        return _square_pell(isqrt(m), c)
    terms, qs, odd = _half_period(m)
    h, q = _least_unit(m, terms, qs, odd)
    x1, y1 = (h * h + m * q * q, 2 * h * q) if odd else (h, q)
    n_bound = isqrt((abs(c) * (x1 + 1)) // 2) + 1
    sols = set()
    for g, k, z, terms, flip in _classes(m, c, odd):
        big_a, _, big_b, _ = _continuant(terms)
        x, y = k * big_a - z * big_b, big_b
        if flip:
            x, y = x * h + m * y * q, x * q + y * h
        x, y = abs(x), abs(y)
        while (u := abs(x * x1 - m * y * y1)) < x:
            x, y = u, abs(y * x1 - x * y1)
        for u, v in ((x, y), (x, -y)):
            while g * abs(u) <= n_bound:
                sols.add((g * abs(u), g * abs(v)))
                u, v = u * x1 + m * v * y1, u * y1 + v * x1
    return [PellSolution(n, a, m, c) for n, a in sorted(sols)]
