"""Discriminant groups, discriminant quadratic forms, and gluing of even
lattices along isotropic subgroups of the discriminant form.

For an even nondegenerate lattice L the discriminant group is d(L) = L*/L
with q: d(L) -> Q/2Z and b: d(L) x d(L) -> Q/Z.  Values are exact Fractions
reduced to [0,2) and [0,1).  Gluing two even lattices along an isotropic
subgroup of d(left) + d(right) produces the even overlattice generated by
the rational lifts.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import (
    DegenerateLatticeError,
    GlueObstructionError,
    InvalidElementError,
    LatticeError,
)
from . import intmat
from .lattice import GramLattice, Sublattice, determinant

__all__ = [
    "DiscriminantData",
    "GlueData",
    "GlueExtensionReport",
    "check_isotropic",
    "discriminant_group",
    "glue",
    "glue_extension_check",
]

# largest order of d(S) + d(K) that glue_extension_check enumerates
GROUP_MAX = 200000


def _mod2(x: Fraction) -> Fraction:
    return x - 2 * (x / 2).__floor__()


def _mod1(x: Fraction) -> Fraction:
    return x - x.__floor__()


def _frac_pairing(gram, v, w) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            row = gram[i]
            total += vi * sum(Fraction(row[j]) * w[j] for j in range(len(w)) if w[j])
    return total


@dataclass(frozen=True)
class DiscriminantData:
    """Invariant factors, generator lifts and form values of d(L).

    generators[i] is a rational coordinate tuple in the lattice basis whose
    class has order invariant_factors[i]; qvalues[i] = q(g_i) in [0,2);
    bmatrix[i][j] = b(g_i, g_j) in [0,1).
    """

    lattice: GramLattice = field(repr=False)
    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]
    qvalues: tuple[Fraction, ...]
    bmatrix: tuple[tuple[Fraction, ...], ...]
    _u: intmat.Matrix = field(repr=False, compare=False, default=())
    _diag: tuple[int, ...] = field(repr=False, compare=False, default=())

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def group_name(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)

    def exponents_of_lift(self, lift) -> tuple[int, ...]:
        """Coordinates of a dual-lattice lift w.r.t. the stored generators.

        x -> G x identifies d(L) with Z^n / G Z^n, and U G V = D carries
        that onto the sum of the Z/d_j, so the j-th coordinate of x is
        (U G x)_j mod d_j.
        """
        gx = _require_dual(self.lattice, tuple(Fraction(x) for x in lift))
        ugx = intmat.mat_vec(self._u, gx)
        return tuple(c % d for c, d in zip(ugx, self._diag) if d > 1)

    def to_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "generators": [[str(x) for x in g] for g in self.generators],
            "qvalues": [f"{q} mod 2" for q in self.qvalues],
            "bmatrix": [[f"{b} mod 1" for b in row] for row in self.bmatrix],
        }


def discriminant_group(L: GramLattice) -> DiscriminantData:
    """Compute d(L) for an even nondegenerate lattice.

    The Smith decomposition U G V = D identifies L*/L with the cokernel of
    G; the class of column j of V divided by D[j][j] is a generator of
    order D[j][j].
    """
    if not L.is_even():
        raise LatticeError("discriminant form is defined for even lattices")
    if determinant(L) == 0:
        raise DegenerateLatticeError("degenerate lattice has no discriminant group")
    n = L.rank
    D, U, V = intmat.smith_normal_form_full(L.gram)
    diag = tuple(D[i][i] for i in range(n))
    factors = []
    gens = []
    for j in range(n):
        d = diag[j]
        if d > 1:
            factors.append(d)
            gens.append(tuple(Fraction(V[i][j], d) for i in range(n)))
    qvals = tuple(_mod2(_frac_pairing(L.gram, g, g)) for g in gens)
    bmat = tuple(
        tuple(_mod1(_frac_pairing(L.gram, g, h)) for h in gens) for g in gens
    )
    return DiscriminantData(
        lattice=L,
        invariant_factors=tuple(factors),
        generators=tuple(gens),
        qvalues=qvals,
        bmatrix=bmat,
        _u=U,
        _diag=diag,
    )


def _require_dual(L: GramLattice, lift) -> tuple[int, ...]:
    """A valid lift pairs integrally with the whole lattice; returns G lift."""
    if len(lift) != L.rank:
        raise InvalidElementError("lift has wrong length")
    gx = []
    for row in L.gram:
        val = sum(Fraction(a) * x for a, x in zip(row, lift))
        if val.denominator != 1:
            raise InvalidElementError(
                "lift is not in the dual lattice (denominator does not divide the order)"
            )
        gx.append(int(val))
    return tuple(gx)


@dataclass(frozen=True)
class GlueData:
    """Two even lattices and generators of a candidate glue subgroup of
    d(left) + d(right), given as pairs of rational lifts."""

    left: GramLattice
    right: GramLattice
    subgroup_gens: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]

    def __post_init__(self):
        gens = tuple(
            (
                tuple(Fraction(x) for x in a),
                tuple(Fraction(x) for x in b),
            )
            for a, b in self.subgroup_gens
        )
        object.__setattr__(self, "subgroup_gens", gens)


def check_isotropic(g: GlueData) -> bool:
    """True iff every generator has q = 0 (mod 2) and all pairs have
    b = 0 (mod 1), i.e. the glue group is isotropic for q_left + q_right."""
    for a, b in g.subgroup_gens:
        _require_dual(g.left, a)
        _require_dual(g.right, b)
    gens = g.subgroup_gens
    for a, b in gens:
        q = _mod2(_frac_pairing(g.left.gram, a, a) + _frac_pairing(g.right.gram, b, b))
        if q != 0:
            return False
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            ai, bi = gens[i]
            aj, bj = gens[j]
            bb = _mod1(
                _frac_pairing(g.left.gram, ai, aj)
                + _frac_pairing(g.right.gram, bi, bj)
            )
            if bb != 0:
                return False
    return True


def glue_with_basis(g: GlueData):
    """Glue and also return (overlattice, basis rows over Q, glue index).

    The overlattice is generated by left + right and the lifts; its basis is
    extracted by Hermite reduction of the scaled generators.  The basis rows
    express the new basis in the old left+right coordinates, so
    det(out) * index^2 = det(left) * det(right).
    """
    if not check_isotropic(g):
        raise GlueObstructionError("glue subgroup is not isotropic")
    n1, n2 = g.left.rank, g.right.rank
    n = n1 + n2
    big = [list(row) + [0] * n2 for row in g.left.gram]
    big += [[0] * n1 + list(row) for row in g.right.gram]
    gram = intmat.to_matrix(big)

    rows = [tuple(Fraction(x) for x in row) for row in intmat.identity(n)]
    rows += [a + b for a, b in g.subgroup_gens]
    t = lcm(*(x.denominator for row in rows for x in row)) if rows else 1
    scaled = [tuple(int(x * t) for x in row) for row in rows]
    H = intmat.hermite_row_basis(scaled)
    if len(H) != n:
        raise GlueObstructionError("glue generators do not span a finite overlattice")
    basis = tuple(tuple(Fraction(x, t) for x in row) for row in H)
    det_h = intmat.bareiss_det(H)
    index, rem = divmod(t**n, det_h)
    if rem:
        raise GlueObstructionError("overlattice index is not integral")

    new_gram = []
    for v in basis:
        row_vals = []
        for w in basis:
            val = _frac_pairing(gram, v, w)
            if val.denominator != 1:
                raise GlueObstructionError("glued form is not integral")
            row_vals.append(int(val))
        new_gram.append(tuple(row_vals))
    out = GramLattice(tuple(new_gram))
    if not out.is_even():
        raise GlueObstructionError("glued lattice is not even")
    return out, basis, index


def glue(g: GlueData) -> GramLattice:
    """The even overlattice glued along the given isotropic subgroup."""
    return glue_with_basis(g)[0]


@dataclass(frozen=True)
class GlueExtensionReport:
    """What glue_extension_check found for S, K inside their ambient L."""

    glue_order: int
    glue_invariant_factors: tuple[int, ...]
    gen_lifts: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    gen_qvalues: tuple[Fraction, ...]
    isotropic: bool
    disc_order_ambient: int
    hperp_mod_h_order: int
    quotient_identity_holds: bool
    det_law_holds: bool


def glue_extension_check(S: Sublattice, K: Sublattice) -> GlueExtensionReport:
    """Compute H = L/(S + K) as a subgroup of d(S) + d(K), verify that it is
    isotropic, and verify |d(L)| = |H_perp / H| by enumerating the (finite)
    ambient discriminant sum.
    """
    L = S.ambient
    if K.ambient != L:
        raise LatticeError("S and K must live in the same ambient lattice")
    for v in S.basis:
        for w in K.basis:
            if L.pairing(v, w) != 0:
                raise LatticeError("S and K must be orthogonal")
    n = L.rank
    if S.rank + K.rank != n:
        raise LatticeError("S + K must have finite index in the ambient lattice")

    stacked = intmat.to_matrix(tuple(S.basis) + tuple(K.basis))
    D, U, _ = intmat.smith_normal_form_full(stacked)
    diag = [D[i][i] for i in range(n)]
    if any(d == 0 for d in diag):
        raise LatticeError("S + K must have finite index in the ambient lattice")
    glue_factors = tuple(d for d in diag if d > 1)
    glue_order = 1
    for d in glue_factors:
        glue_order *= d

    SG, KG = S.gram(), K.gram()
    ds = discriminant_group(SG)
    dk = discriminant_group(KG)

    # U*M*V = D, so row i of U*M is d_i times row i of V^-1, a vector of L
    # whose class generates a cyclic factor of L/(S + K).  Its coordinates
    # on the basis of S followed by the basis of K are U[i]/d_i: the first
    # rank S entries lift into d(S), the rest into d(K).
    gen_lifts = []
    for i, d in enumerate(diag):
        if d > 1:
            x = tuple(Fraction(u, d) for u in U[i])
            gen_lifts.append((x[: S.rank], x[S.rank :]))

    qvals = tuple(
        _mod2(_frac_pairing(SG.gram, a, a) + _frac_pairing(KG.gram, b, b))
        for a, b in gen_lifts
    )
    iso = check_isotropic(GlueData(SG, KG, tuple(gen_lifts)))

    # enumerate d(S) + d(K) to measure H_perp / H
    orders = list(ds.invariant_factors) + list(dk.invariant_factors)
    total = 1
    for d in orders:
        total *= d
    if total > GROUP_MAX:
        raise LatticeError(f"discriminant sum of order {total} exceeds GROUP_MAX = {GROUP_MAX}")

    ns = len(ds.invariant_factors)
    h_exp = []
    for a, b in gen_lifts:
        h_exp.append(ds.exponents_of_lift(a) + dk.exponents_of_lift(b))

    bmat = [[Fraction(0)] * len(orders) for _ in range(len(orders))]
    for i in range(ns):
        for j in range(ns):
            bmat[i][j] = ds.bmatrix[i][j]
    for i in range(len(dk.invariant_factors)):
        for j in range(len(dk.invariant_factors)):
            bmat[ns + i][ns + j] = dk.bmatrix[i][j]

    def b_pair(x, y):
        return _mod1(
            sum(
                Fraction(x[i]) * y[j] * bmat[i][j]
                for i in range(len(orders))
                for j in range(len(orders))
                if x[i] and y[j] and bmat[i][j]
            )
        )

    elements = list(product(*(range(d) for d in orders))) if orders else [()]
    h_set = {tuple(0 for _ in orders)}
    frontier = [tuple(0 for _ in orders)]
    while frontier:
        cur = frontier.pop()
        for gen in h_exp:
            nxt = tuple((c + g) % d for c, g, d in zip(cur, gen, orders))
            if nxt not in h_set:
                h_set.add(nxt)
                frontier.append(nxt)
    hperp = [x for x in elements if all(b_pair(x, h) == 0 for h in h_exp)]
    hperp_mod_h = len(hperp) // len(h_set) if h_set else 1

    disc_l = discriminant_group(L).order
    det_law = determinant(L) * glue_order**2 == determinant(SG) * determinant(KG)

    return GlueExtensionReport(
        glue_order=glue_order,
        glue_invariant_factors=glue_factors,
        gen_lifts=tuple(gen_lifts),
        gen_qvalues=qvals,
        isotropic=iso,
        disc_order_ambient=disc_l,
        hperp_mod_h_order=hperp_mod_h,
        quotient_identity_holds=(hperp_mod_h == disc_l),
        det_law_holds=det_law,
    )
