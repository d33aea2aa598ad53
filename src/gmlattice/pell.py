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
The full period, where a caller needs it, is that half mirrored.

So the negative Pell equation P_m(-1) is solvable exactly when the period
is odd (plus the degenerate case m = 1), and for c^2 < m, where every
primitive solution is a convergent (Lagrange), P_m(c) is solvable exactly
when c / g^2 equals some (-1)^k Q_k for a square g^2 dividing c.
``pell_solvable`` decides from the Q_k of the half period alone, and the
walk for P_m(-1) hands its half on, so ``classify`` reads P_{2d}(5) off
the Q_k of sqrt(d/2).  The solution of P_m(-1) is the convergent at
k = l - 1; with A_i = [[a_i, 1], [1, 0]] its matrix A_0 A_1 ... A_{l-1}
is (A_0 B) B^T for B = A_1 ... A_s, which gives it from the convergents
at s and s - 1:

    n = h_s q_s + h_{s-1} q_{s-1},  a = q_s^2 + q_{s-1}^2.

A_0 B is built by a balanced product tree over a_0, ..., a_s, whose
leaves are short linear walks, so the big-integer products are between
numbers of equal size.  ``pell_general`` reads the norms of the
convergents off the full period in the same way and builds, by that tree,
only the convergents whose norm it matches and the fundamental unit.
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

# partial quotients multiplied by a linear walk before the product tree merges
_LEAF = 64

# largest |c| that pell_general accepts
C_MAX = 10**6

# largest n bound that pell_general scans when c^2 >= m
SCAN_MAX = 2 * 10**6


@dataclass(frozen=True)
class PellSolution:
    """Non-negative integers with n^2 - m*a^2 = c."""

    n: int
    a: int
    m: int
    c: int

    def __post_init__(self):
        if self.n * self.n - self.m * self.a * self.a != self.c:
            raise DomainError(
                f"({self.n}, {self.a}) does not solve n^2 - {self.m} a^2 = {self.c}"
            )

    def as_pair(self) -> tuple[int, int]:
        return (self.n, self.a)

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a}


def _half_period(m: int) -> tuple[list[tuple[int, int]], bool]:
    """([(a_1, Q_1), ..., (a_s, Q_s)], l odd) for the period l of sqrt(m),
    m >= 2 not a square: P_{k+1} = a_k Q_k - P_k,
    Q_{k+1} = (m - P_{k+1}^2) / Q_k, a_{k+1} = (a_0 + P_{k+1}) // Q_{k+1},
    stopped at the middle, the first k = s with Q_{s+1} = Q_s (l = 2s + 1)
    or P_{s+1} = P_s (l = 2s)."""
    if m < 2:
        raise DomainError("the continued fraction of sqrt(m) needs m >= 2")
    if is_square(m):
        raise DomainError(f"sqrt({m}) is an integer, no period")
    a0 = isqrt(m)
    p, q, a = 0, 1, a0
    out = []
    while True:
        p_next = a * q - p
        q_next = (m - p_next * p_next) // q
        if q_next == q:
            return out, True
        if p_next == p:
            return out, False
        p, q = p_next, q_next
        a = (a0 + p) // q
        out.append((a, q))


def _period(m: int) -> list[tuple[int, int]]:
    """[(a_1, Q_1), ..., (a_l, Q_l)] over one period of sqrt(m), m >= 2 not
    a square: the half period, its mirror, and (a_l, Q_l) = (2 a_0, 1)."""
    half, odd = _half_period(m)
    return half + list(reversed(half if odd else half[:-1])) + [(2 * isqrt(m), 1)]


def _continuant(terms: list[int]) -> tuple[int, int, int, int]:
    """(w, x, y, z) with [[w, x], [y, z]] the product of [[a, 1], [1, 0]]
    over ``terms``: linear walks over leaves of _LEAF terms, merged
    pairwise in a balanced tree."""
    level = []
    for i in range(0, len(terms), _LEAF):
        w, x, y, z = 1, 0, 0, 1
        for a in terms[i : i + _LEAF]:
            w, x, y, z = a * w + x, w, a * y + z, y
        level.append((w, x, y, z))
    while len(level) > 1:
        merged = [
            (w * w2 + x * y2, w * x2 + x * z2, y * w2 + z * y2, y * x2 + z * z2)
            for (w, x, y, z), (w2, x2, y2, z2) in zip(level[::2], level[1::2])
        ]
        level = merged + level[len(merged) * 2 :]
    return level[0]


def cf_sqrt(m: int) -> tuple[int, list[int]]:
    """Continued fraction sqrt(m) = [a0; period...], minimal period."""
    period = _period(m)
    return isqrt(m), [a for a, _ in period]


def negative_pell(m: int) -> PellSolution | None:
    """Fundamental solution of n^2 - m*a^2 = -1, or None if unsolvable.

    Solvable iff the period l of sqrt(m) is odd, l = 2s + 1; the solution
    is then the convergent h_{l-1} / q_{l-1}, the first of norm -1.  Only
    the half period a_1, ..., a_s is computed: the product tree gives the
    convergents at s and s - 1, and the midpoint formula
    n = h_s q_s + h_{s-1} q_{s-1}, a = q_s^2 + q_{s-1}^2 gives the solution.
    Perfect squares are handled outside the continued-fraction path:
    n^2 - s^2 a^2 = -1 factors as (n - sa)(n + sa) = -1, solvable only for
    s = 1 with (n, a) = (0, 1).
    """
    return _negative_pell(m)[0]


def _negative_pell(m: int) -> tuple[PellSolution | None, list[tuple[int, int]]]:
    """(negative_pell(m), the half period of sqrt(m) it walked or [])."""
    if m < 1:
        raise DomainError("negative_pell expects m >= 1")
    if is_square(m):
        return (PellSolution(0, 1, 1, -1) if m == 1 else None), []
    half, odd = _half_period(m)
    if not odd:
        return None, half
    h, h_prev, q, q_prev = _continuant([isqrt(m)] + [a for a, _ in half])
    return PellSolution(h * q + h_prev * q_prev, q * q + q_prev * q_prev, m, -1), half


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


def pell_solvable(m: int, c: int) -> bool:
    """Whether n^2 - m*a^2 = c has an integer solution, as bool(pell_general).

    For non-square m and c^2 < m the answer comes from half a period of
    the (P_k, Q_k) recurrence alone: the norms of the convergents run
    through (-1)^k Q_k, with both signs once the period is odd, since the
    norms repeat with period l and flip sign after an odd l.  The mirrored
    half adds no new Q_k, and Q_l = 1 adds the norm +1.  Perfect-square m
    factors c; c^2 >= m falls back to the pell_general scan, which raises
    DomainError (naming SCAN_MAX) when a huge unit puts its bound past it.
    """
    if m < 1:
        raise DomainError("pell_solvable expects m >= 1")
    if c == 0:
        raise DomainError("pell_solvable expects c != 0")
    if is_square(m):
        return bool(_square_pell(isqrt(m), c))
    if c * c >= m:
        return bool(pell_general(m, c))
    half, odd = _half_period(m)
    norms = {big_q if k % 2 == 0 else -big_q for k, (_, big_q) in enumerate(half, 1)}
    norms.add(1)
    if odd:
        norms |= {-v for v in norms}
    return not norms.isdisjoint(_primitive_targets(c))


def pell_general(m: int, c: int) -> list[PellSolution]:
    """Fundamental-class representatives of n^2 - m*a^2 = c with n, a >= 0.

    An empty list means the equation is unsolvable.  The representatives
    satisfy 0 <= n <= sqrt(|c| (x1 + 1) / 2) with (x1, y1) the fundamental
    unit of P_m(1), the convergent at the end of one period of sqrt(m), or
    of two when the period is odd.  For c^2 < m every primitive solution
    is a convergent before that unit (Lagrange): the norm of convergent j,
    (-1)^(j+1) Q_{j+1}, is read off the (P_k, Q_k) recurrence, and only the
    convergents whose norm matches and the unit itself are built, each by
    the product tree.  For c^2 >= m the unit supplies the bound and n is
    scanned up to it, which is refused above SCAN_MAX.  Perfect-square m
    reduces to factoring c, which also covers the P_{2d}(5) check at d = 2
    where 2d = 4.
    """
    if m < 1:
        raise DomainError("pell_general expects m >= 1")
    if c == 0:
        raise DomainError("pell_general expects c != 0")
    if abs(c) > C_MAX:
        raise DomainError(f"|c| = {abs(c)} exceeds the supported limit C_MAX = {C_MAX}")
    if is_square(m):
        return _square_pell(isqrt(m), c)
    period = _period(m)
    if len(period) % 2:
        period += period
    terms = [isqrt(m)] + [a for a, _ in period[:-1]]
    targets = _primitive_targets(c) if c * c < m else {}
    sols = set()
    for j, (_, big_q) in enumerate(period):
        g = targets.get(big_q if j % 2 else -big_q)
        if g:
            h, _, q, _ = _continuant(terms[: j + 1])
            sols.add((g * h, g * q))
    x1 = _continuant(terms)[0]
    n_bound = isqrt((abs(c) * (x1 + 1)) // 2) + 1
    if c > 0 and is_square(c):
        sols.add((isqrt(c), 0))
    if c < 0 and (-c) % m == 0 and is_square((-c) // m):
        sols.add((0, isqrt((-c) // m)))
    if c * c < m:
        sols = {s for s in sols if s[0] <= n_bound}
    else:
        if n_bound > SCAN_MAX:
            raise DomainError(
                f"|c| = {abs(c)} >= sqrt({m}) and the fundamental unit puts the scan"
                f" bound past the supported limit SCAN_MAX = {SCAN_MAX}"
            )
        for n in range(0, n_bound + 1):
            r = n * n - c
            if r < 0 or r % m:
                continue
            q2 = r // m
            a = isqrt(q2)
            if a * a == q2:
                sols.add((n, a))
    return [PellSolution(n, a, m, c) for n, a in sorted(sols)]
