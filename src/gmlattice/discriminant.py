"""Discriminant groups, discriminant quadratic forms, and gluing of even
lattices along isotropic subgroups of the discriminant form.

For an even nondegenerate lattice L the discriminant group is d(L) = L*/L
with q: d(L) -> Q/2Z and b: d(L) x d(L) -> Q/Z.  Values are exact Fractions
reduced to [0,2) and [0,1).  Gluing two even lattices along an isotropic
subgroup of d(left) + d(right) produces the even overlattice generated by
the rational lifts.

Fractions appear only at the API: in the values returned and in the lifts
taken as arguments.  Inside, a rational lift x is held as integer
numerators over one denominator t together with the integer vector G x,
so a pairing is an integer dot product over t, a dual-lattice test is a
divisibility test, and one Fraction is built per value stored.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .errors import LatticeError
from . import intmat
from .lattice import GramLattice, Sublattice, determinant, direct_sum

__all__ = [
    "DiscriminantData",
    "GlueData",
    "GlueExtensionReport",
    "check_isotropic",
    "discriminant_group",
    "glue",
    "glue_extension_check",
]


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _q(s: int, t: int) -> Fraction:
    """s / t reduced mod 2, into [0, 2)."""
    return Fraction(s % (2 * t), t)


def _b(s: int, t: int) -> Fraction:
    """s / t reduced mod 1, into [0, 1)."""
    return Fraction(s % t, t)


def _numerators(lift) -> tuple[tuple[int, ...], int]:
    """A rational vector as integer numerators over one denominator t."""
    fr = [Fraction(x) for x in lift]
    t = lcm(*(x.denominator for x in fr))
    return tuple(x.numerator * (t // x.denominator) for x in fr), t


def _dual_image(L: GramLattice, num, t: int) -> tuple[int, ...]:
    """G x for x = num / t, which must lie in the dual lattice, i.e. pair
    integrally with the whole lattice."""
    if len(num) != L.rank:
        raise LatticeError("lift has wrong length")
    gx = []
    for row in L.gram:
        q, r = divmod(_dot(row, num), t)
        if r:
            raise LatticeError(
                "lift is not in the dual lattice (denominator does not divide the order)"
            )
        gx.append(q)
    return tuple(gx)


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
        return prod(self.invariant_factors)

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
        return self._exponents(_dual_image(self.lattice, *_numerators(lift)))

    def _exponents(self, gx) -> tuple[int, ...]:
        """exponents_of_lift, given G x."""
        return tuple(_dot(row, gx) % d for row, d in zip(self._u, self._diag) if d > 1)

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
    order D[j][j].  G is singular iff some D[j][j] is 0.  Each numerator is
    taken mod D[j][j], so every coordinate of a generator lies in [0, 1);
    that moves the lift by a vector of L, which keeps its class, and keeps
    q mod 2 since L is even.
    """
    if not L.is_even():
        raise LatticeError("discriminant form is defined for even lattices")
    n = L.rank
    D, U, V = intmat.smith_normal_form_full(L.gram)
    diag = tuple(D[i][i] for i in range(n))
    if 0 in diag:
        raise LatticeError("degenerate lattice has no discriminant group")
    factors = tuple(d for d in diag if d > 1)
    # generator j is cols[j] / d_j, and G times it is the integer vector gcols[j]
    cols = [tuple(row[j] % diag[j] for row in V) for j in range(n) if diag[j] > 1]
    gcols = [_dual_image(L, c, d) for c, d in zip(cols, factors)]
    return DiscriminantData(
        lattice=L,
        invariant_factors=factors,
        generators=tuple(tuple(Fraction(x, d) for x in c) for c, d in zip(cols, factors)),
        qvalues=tuple(_q(_dot(c, gc), d) for c, gc, d in zip(cols, gcols, factors)),
        bmatrix=tuple(
            tuple(_b(_dot(c, gc), d) for gc in gcols) for c, d in zip(cols, factors)
        ),
        _u=U,
        _diag=diag,
    )


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


def _glue_lifts(left: GramLattice, right: GramLattice, pairs):
    """Each pair (a, b) = (na, nb) / t over one denominator t, as the tuple
    (na, nb, t, G_left a, G_right b); raises unless a and b lie in the duals."""
    out = []
    for a, b in pairs:
        num, t = _numerators(a + b)
        na, nb = num[: len(a)], num[len(a) :]
        out.append((na, nb, t, _dual_image(left, na, t), _dual_image(right, nb, t)))
    return out


def _isotropic(lifts) -> bool:
    """q(x) = (na.G a + nb.G b) / t vanishes mod 2 on every lift, b mod 1 on
    every pair."""
    for na, nb, t, ga, gb in lifts:
        if (_dot(na, ga) + _dot(nb, gb)) % (2 * t):
            return False
    for i, (na, nb, t, _, _) in enumerate(lifts):
        for _, _, _, ga, gb in lifts[i + 1 :]:
            if (_dot(na, ga) + _dot(nb, gb)) % t:
                return False
    return True


def check_isotropic(g: GlueData) -> bool:
    """True iff every generator has q = 0 (mod 2) and all pairs have
    b = 0 (mod 1), i.e. the glue group is isotropic for q_left + q_right."""
    return _isotropic(_glue_lifts(g.left, g.right, g.subgroup_gens))


def glue_with_basis(g: GlueData):
    """Glue and also return (overlattice, basis rows over Q, glue index).

    The overlattice is generated by left + right and the lifts; its basis is
    extracted by Hermite reduction of the generators scaled by their common
    denominator t, so the new Gram is (H_i G H_j) / t^2.  The basis rows
    express the new basis in the old left+right coordinates, so
    det(out) * index^2 = det(left) * det(right).
    """
    lifts = _glue_lifts(g.left, g.right, g.subgroup_gens)
    if not _isotropic(lifts):
        raise LatticeError("glue subgroup is not isotropic")
    big = direct_sum(g.left, g.right).gram
    n = len(big)
    t = lcm(*(s for _, _, s, _, _ in lifts))
    scaled = [tuple(t if i == j else 0 for j in range(n)) for i in range(n)]
    scaled += [tuple(x * (t // s) for x in na + nb) for na, nb, s, _, _ in lifts]
    H = intmat.hermite_row_basis(scaled)
    if len(H) != n:
        raise LatticeError("glue generators do not span a finite overlattice")
    # H is square and upper triangular, so det H is its diagonal's product
    index, rem = divmod(t**n, prod(h[i] for i, h in enumerate(H)))
    if rem:
        raise LatticeError("overlattice index is not integral")

    t2 = t * t
    scaled_gram = intmat.mat_mul(intmat.mat_mul(H, big), intmat.transpose(H))
    if any(x % t2 for row in scaled_gram for x in row):
        raise LatticeError("glued form is not integral")
    out = GramLattice(tuple(tuple(x // t2 for x in row) for row in scaled_gram))
    if not out.is_even():
        raise LatticeError("glued lattice is not even")
    basis = tuple(tuple(Fraction(x, t) for x in row) for row in H)
    return out, basis, index


def glue(g: GlueData) -> GramLattice:
    """The even overlattice glued along the given isotropic subgroup."""
    return glue_with_basis(g)[0]


@dataclass(frozen=True)
class GlueExtensionReport:
    """What glue_extension_check found for S, K inside their ambient L;
    disc_s is d(S) on the Gram of its basis."""

    glue_order: int
    glue_invariant_factors: tuple[int, ...]
    gen_lifts: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    gen_qvalues: tuple[Fraction, ...]
    isotropic: bool
    disc_order_ambient: int
    hperp_mod_h_order: int
    quotient_identity_holds: bool
    det_law_holds: bool
    disc_s: DiscriminantData = field(repr=False, compare=False)


def _subgroup_order(gens, moduli) -> int:
    """Order of the subgroup of the sum of the Z/m (m in moduli) generated by
    gens.  The subgroup is A/B for A the span of gens and the m_i e_i in Z^k
    and B the span of the m_i e_i alone, so its order is the index
    [Z^k : B] / [Z^k : A]: the product of the m_i over the product of the
    pivots of the (square, upper triangular) Hermite basis of A.
    """
    eye = intmat.identity(len(moduli))
    H = intmat.hermite_row_basis([*gens, *(tuple(m * x for x in e) for m, e in zip(moduli, eye))])
    return prod(moduli) // prod(h[i] for i, h in enumerate(H))


def glue_extension_check(S: Sublattice, K: Sublattice) -> GlueExtensionReport:
    """Compute H = L/(S + K) as a subgroup of d(S) + d(K), verify that it is
    isotropic, and verify |d(L)| = |H_perp / H| on the (finite) ambient
    discriminant sum, where |d(L)| = |det L|.

    |H| and |H_perp| are indices of lattices read off Hermite pivots
    (_subgroup_order); no group element is enumerated, so the order of
    d(S) + d(K) is not bounded.
    """
    L = S.ambient
    if K.ambient != L:
        raise LatticeError("S and K must live in the same ambient lattice")
    gk = [intmat.mat_vec(L.gram, w) for w in K.basis]
    if any(_dot(v, gw) for v in S.basis for gw in gk):
        raise LatticeError("S and K must be orthogonal")
    n = L.rank
    if S.rank + K.rank != n:
        raise LatticeError("S + K must have finite index in the ambient lattice")

    stacked = intmat.to_matrix(tuple(S.basis) + tuple(K.basis))
    D, U, _ = intmat.smith_normal_form_full(stacked)
    diag = [D[i][i] for i in range(n)]
    if any(d == 0 for d in diag):
        raise LatticeError("S + K must have finite index in the ambient lattice")
    # d(L) is defined for even L only
    if not L.is_even():
        raise LatticeError("discriminant form is defined for even lattices")
    glue_factors = tuple(d for d in diag if d > 1)
    glue_order = prod(glue_factors)

    SG, KG = S.gram(), K.gram()
    ds = discriminant_group(SG)
    dk = discriminant_group(KG)

    # U*M*V = D, so row i of U*M is d_i times row i of V^-1, a vector of L
    # whose class generates a cyclic factor of L/(S + K).  Its coordinates
    # on the basis of S followed by the basis of K are U[i]/d_i: the first
    # rank S entries lift into d(S), the rest into d(K).  Each numerator is
    # taken mod d_i, as discriminant_group does, which moves the lift by a
    # vector of S + K and so keeps its class in L/(S + K).
    gen_lifts = []
    for row, d in zip(U, diag):
        if d > 1:
            x = tuple(Fraction(u % d, d) for u in row)
            gen_lifts.append((x[: S.rank], x[S.rank :]))
    lifts = _glue_lifts(SG, KG, gen_lifts)
    qvals = tuple(_q(_dot(na, ga) + _dot(nb, gb), t) for na, nb, t, ga, gb in lifts)
    iso = _isotropic(lifts)

    orders = ds.invariant_factors + dk.invariant_factors
    total = ds.order * dk.order
    h_exp = [ds._exponents(ga) + dk._exponents(gb) for _, _, _, ga, gb in lifts]

    # b on d(S) + d(K) is C / N: C block diagonal, N the common denominator
    N = lcm(*(b.denominator for dg in (ds, dk) for row in dg.bmatrix for b in row))
    ns = len(ds.invariant_factors)
    C = [[0] * len(orders) for _ in orders]
    for off, dg in ((0, ds), (ns, dk)):
        for i, row in enumerate(dg.bmatrix):
            for j, b in enumerate(row):
                C[off + i][off + j] = b.numerator * (N // b.denominator)
    # with g_k the generators of d(S) + d(K), c_k holds N b(g_k, h) mod N for
    # each generator h of H: H_perp is the kernel of x -> sum_k x_k c_k, whose
    # image is the span of the c_k, so |H_perp| = |d(S) + d(K)| / |span|
    c = [tuple(_dot(row, h) % N for h in h_exp) for row in C]
    hperp = total // _subgroup_order(c, (N,) * len(h_exp))
    hperp_mod_h = hperp // _subgroup_order(h_exp, orders)

    # |d(L)| = |L*/L| = |det L|
    det_l = determinant(L)
    disc_l = abs(det_l)
    det_law = det_l * glue_order**2 == determinant(SG) * determinant(KG)

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
        disc_s=ds,
    )
