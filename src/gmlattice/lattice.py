"""Integral lattices presented by Gram matrices: invariants, sublattices
and bounded vector search.

A lattice here is a free Z-module of finite rank with an integer-valued
symmetric bilinear form, carried entirely by its Gram matrix.  Vectors are
plain tuples of ints in the lattice basis.  Every operation is a pure
function on immutable values.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt, prod
from operator import mul
import re

from .errors import DomainError, LatticeError
from . import intmat
from .arith import xgcd
from .intmat import Matrix

__all__ = [
    "GramLattice",
    "Sublattice",
    "determinant",
    "direct_sum",
    "find_hyperbolic_plane",
    "format_gram_text",
    "hyperbolic_partner",
    "mukai_sign_reversed",
    "orthogonal_complement",
    "parse_gram_text",
    "saturate",
    "signature",
    "standard_lattice",
    "twist",
]

# largest find_hyperbolic_plane box, (2*coord_bound+1)^(rank-1) prefixes (the
# last coordinate is solved), or ^rank for a degenerate form, where it can be
# free; at the limit, U(3) at coord_bound 249999 takes 4.5 s and 37 MB peak
# RSS through the CLI, since box vectors stream (Python 3.11, 2-vCPU host)
HYPERBOLIC_BOX_MAX = 5 * 10**5


@dataclass(frozen=True)
class GramLattice:
    """A lattice given by its symmetric integer Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        g = intmat.to_matrix(self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise LatticeError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def norm(self, v) -> int:
        """v . v under the bilinear form."""
        return self.pairing(v, v)

    def pairing(self, v, w) -> int:
        if len(v) != self.rank or len(w) != self.rank:
            raise LatticeError("vector length must equal the lattice rank")
        return sum(map(mul, v, intmat.mat_vec(self.gram, w)))


def determinant(L: GramLattice) -> int:
    """Exact determinant of the Gram matrix (fraction-free elimination)."""
    return intmat.bareiss_det(L.gram)


def signature(L: GramLattice) -> tuple[int, int, int]:
    """Inertia (positive, negative, null) of the form: by Sylvester's law of
    inertia, the sign counts of the pivots of one exact symmetric
    elimination (``intmat.inertia``)."""
    return intmat.inertia(L.gram)


def twist(L: GramLattice, m: int) -> GramLattice:
    """The lattice L(m): same module, form multiplied by m."""
    if m == 0:
        raise DomainError("twist by 0 is not a lattice")
    return GramLattice(tuple(tuple(m * x for x in row) for row in L.gram))


def direct_sum(*lattices: GramLattice) -> GramLattice:
    n = sum(L.rank for L in lattices)
    rows = []
    offset = 0
    for L in lattices:
        for row in L.gram:
            rows.append((0,) * offset + row + (0,) * (n - offset - L.rank))
        offset += L.rank
    return GramLattice(tuple(rows))


_U_GRAM = ((0, 1), (1, 0))

# Gram of E8 in root basis (Cartan matrix); nodes 1-2-3-4-5-6-7 in a chain
# with node 8 attached to node 5.  Even, positive definite, determinant 1.
_E8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

_I_RS = re.compile(r"^I\((\d+),(\d+)\)$")


def _diag(entries) -> GramLattice:
    n = len(entries)
    return GramLattice(
        tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


def standard_lattice(name: str) -> GramLattice:
    """Named standard lattices.

    Supported names: "U" (hyperbolic plane), "E8", "I(r,s)" (odd diagonal
    lattice), "Lambda" (E8^2 + U^2 + I(2,0)(2), the rank-22 vanishing
    lattice of signature (20,2)) and "LambdaTilde" (U^4 + E8(-1)^2, the
    rank-24 even unimodular lattice of signature (4,20)).  A twisted copy
    is ``twist(standard_lattice(name), m)``.
    """
    key = name.strip()
    if key == "U":
        return GramLattice(_U_GRAM)
    if key == "E8":
        return GramLattice(_E8_GRAM)
    if key == "Lambda":
        e8 = GramLattice(_E8_GRAM)
        u = GramLattice(_U_GRAM)
        return direct_sum(e8, e8, u, u, _diag((2, 2)))
    if key == "LambdaTilde":
        u = GramLattice(_U_GRAM)
        e8m = twist(GramLattice(_E8_GRAM), -1)
        return direct_sum(u, u, u, u, e8m, e8m)
    m = _I_RS.match(key)
    if not m:
        raise LatticeError(f"unknown standard lattice {name!r}")
    r, s = int(m.group(1)), int(m.group(2))
    return _diag((1,) * r + (-1,) * s)


def mukai_sign_reversed() -> GramLattice:
    """U^4 + E8^2: the sign-reversed rank-24 Mukai lattice.

    Isometric to twist(standard_lattice("LambdaTilde"), -1) because
    U(-1) = U; presented with positive hyperbolic blocks so that the
    standard basis vectors u_i, v_i of the first two planes pair to +1.
    Even, unimodular, signature (20, 4).
    """
    u = GramLattice(_U_GRAM)
    e8 = GramLattice(_E8_GRAM)
    return direct_sum(u, u, u, u, e8, e8)


# ---------------------------------------------------------------------------
# sublattices


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of ``ambient`` spanned by the rows of ``basis``."""

    ambient: GramLattice
    basis: Matrix

    def __post_init__(self):
        b = intmat.to_matrix(self.basis)
        object.__setattr__(self, "basis", b)
        n = self.ambient.rank
        if any(len(row) != n for row in b):
            raise LatticeError("basis vectors must have the ambient rank")
        if b and intmat.rank(b) != len(b):
            raise LatticeError("basis vectors must be linearly independent over Q")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> GramLattice:
        """Induced Gram matrix B G B^T."""
        B = self.basis
        return GramLattice(
            intmat.mat_mul(intmat.mat_mul(B, self.ambient.gram), intmat.transpose(B))
        )

    def is_primitive(self) -> bool:
        """True iff every invariant factor of the coordinate matrix is 1."""
        return all(d == 1 for d in intmat.invariant_factors(self.basis))


def orthogonal_complement(L: GramLattice, S: Sublattice) -> Sublattice:
    """The primitive sublattice of everything orthogonal to S.

    Computed as the integer kernel of B*G, read off the unimodular
    transform of one Hermite elimination, so the result is saturated; its
    basis is in canonical Hermite form.
    """
    if S.ambient != L:
        raise LatticeError("sublattice does not live in the given lattice")
    if not S.basis:
        return Sublattice(L, intmat.identity(L.rank))
    M = intmat.mat_mul(S.basis, L.gram)
    return Sublattice(L, intmat.kernel_basis(M))


def saturate(L: GramLattice, S: Sublattice) -> tuple[Sublattice, int]:
    """Primitive closure of S (rational span intersected with L) and index.

    The index i satisfies det(S) = i^2 * det(saturation).  With
    U*B*V = D the Smith form of the basis B, the saturation is spanned by
    the rows of V^-1, and row i of V^-1 is row i of U*B divided by d_i.
    """
    if S.ambient != L:
        raise LatticeError("sublattice does not live in the given lattice")
    D, U, _ = intmat.smith_normal_form_full(S.basis)
    factors = [D[i][i] for i in range(S.rank)]
    UB = intmat.mat_mul(U, S.basis)
    sat_rows = intmat.hermite_row_basis(
        tuple(x // d for x in row) for row, d in zip(UB, factors)
    )
    return Sublattice(L, sat_rows), prod(factors)


# ---------------------------------------------------------------------------
# bounded vector search


def _norm_solutions(G, target, bounds):
    """Yield all x with |x_i| <= bounds[i] and x.G.x == target, in
    lexicographic order.

    The last coordinate is found by solving the induced integer quadratic
    instead of scanning, which keeps boxes of radius ~30 instant.
    """
    n = len(G)
    if n == 0:
        if target == 0:
            yield ()
        return
    last = n - 1
    a = G[last][last]
    rng = [range(-b, b + 1) for b in bounds[:-1]]
    zb = bounds[-1]
    for prefix in product(*rng):
        qp = 0
        for i in range(last):
            xi = prefix[i]
            if xi:
                row = G[i]
                qp += xi * (
                    row[i] * xi
                    + 2 * sum(row[j] * prefix[j] for j in range(i + 1, last))
                )
        lin = sum(G[i][last] * prefix[i] for i in range(last))
        b = 2 * lin
        c = qp - target
        if a == 0:
            if b == 0:
                if c == 0:
                    for z in range(-zb, zb + 1):
                        yield prefix + (z,)
            else:
                if c % b == 0:
                    z = -c // b
                    if -zb <= z <= zb:
                        yield prefix + (z,)
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            roots = set()
            for num in (-b - s, -b + s):
                if num % (2 * a) == 0:
                    z = num // (2 * a)
                    if -zb <= z <= zb:
                        roots.add(z)
            for z in sorted(roots):
                yield prefix + (z,)


def hyperbolic_partner(L: GramLattice, v):
    """A partner w of the isotropic v (w.w = 0, v.w = 1), so that v and w
    span a hyperbolic plane U; None exactly when G v has content > 1, since
    every pairing v.w is then a multiple of that content.

    Folding xgcd over c = G v, from g = c[0] and u = e_0, keeps u.c = g and
    stops as soon as g == 1; then u.v = 1, and w = u - (u.u/2) v, integral
    because L is even, has v.w = 1 and w.w = u.u - 2(u.u/2) = 0.
    """
    if not L.is_even():
        raise LatticeError("hyperbolic plane search requires an even lattice")
    if len(v) != L.rank:
        raise LatticeError("vector length must equal the lattice rank")
    c = intmat.mat_vec(L.gram, v)
    if sum(map(mul, v, c)) != 0:
        raise LatticeError("hyperbolic partner needs an isotropic vector")
    g, u = c[0], [1] + [0] * (len(c) - 1)
    for i in range(1, len(c)):
        if g == 1:
            break
        g, p, q = xgcd(g, c[i])
        u = [p * x for x in u]
        u[i] = q
    if g != 1:
        return None
    half = L.norm(u) // 2
    return tuple(x - half * y for x, y in zip(u, v))


def find_hyperbolic_plane(L: GramLattice, coord_bound: int):
    """A pair (v, w) with v.v = w.w = 0 and v.w = 1, or None.

    The box |coords| <= coord_bound bounds v only: v is the least isotropic
    box vector, by sup-norm and then lexicographically with its first
    nonzero coordinate positive, whose G v has content 1, and its partner
    w = hyperbolic_partner(L, v) is exact, wherever it lies.  None means
    that no box vector v has such a partner, not that L contains no
    hyperbolic plane.  A box larger than HYPERBOLIC_BOX_MAX is refused with
    LatticeError.
    """
    if not L.is_even():
        raise LatticeError("hyperbolic plane search requires an even lattice")
    if coord_bound < 1:
        raise LatticeError("coord_bound must be >= 1")
    e = L.rank - 1 if determinant(L) else L.rank
    side = 2 * coord_bound + 1
    if e > 0 and (side > HYPERBOLIC_BOX_MAX or side**e > HYPERBOLIC_BOX_MAX):
        raise LatticeError(
            f"search box (2*{coord_bound}+1)^{e} exceeds HYPERBOLIC_BOX_MAX = {HYPERBOLIC_BOX_MAX}"
        )
    best = None
    for v in _norm_solutions(L.gram, 0, [coord_bound] * L.rank):
        if next((x for x in v if x), 0) <= 0:
            continue  # zero, or the negative of a sign-normalized box vector
        key = (max(abs(x) for x in v), v)
        if (best is None or key < best) and gcd(*intmat.mat_vec(L.gram, v)) == 1:
            best = key
    if best is None:
        return None
    v = best[1]
    return (v, hyperbolic_partner(L, v))


# ---------------------------------------------------------------------------
# text format


def format_gram_text(L: GramLattice) -> str:
    """Rank on the first line, then the Gram rows, space separated."""
    lines = [str(L.rank)]
    lines.extend(" ".join(str(x) for x in row) for row in L.gram)
    return "\n".join(lines) + "\n"


def parse_gram_text(text: str) -> GramLattice:
    tokens = text.split()
    if not tokens:
        raise LatticeError("empty Gram text")
    try:
        r = int(tokens[0])
        # the count is compared first, so a long file of the wrong size is
        # refused before any entry is converted
        entries = [int(t) for t in tokens[1:]] if r >= 0 and len(tokens) == r * r + 1 else None
    except ValueError as exc:
        raise LatticeError(f"malformed Gram text: {exc}") from None
    if entries is None:
        raise LatticeError("Gram text must contain rank and rank*rank integers")
    rows = tuple(tuple(entries[i * r : (i + 1) * r]) for i in range(r))
    return GramLattice(rows)
