"""Decision procedures and witness constructors for Gushel-Mukai fourfold
discriminants.

The arithmetic façade of the geometry: a fourfold's period point is encoded
by a positive discriminant d (admissible iff d = 0, 2, 4 mod 8), and the
classical associations become exact integer criteria:

* associated K3 surface:          8 does not divide d and every odd prime
                                  factor of d is 1 (mod 4);
* associated twisted K3 surface:  primes 3 (mod 4) divide d to even order,
                                  i.e. d is a sum of two squares;
* birational Hilbert square:      a^2 d = 2 n^2 + 2 is solvable, i.e. the
                                  negative Pell equation P_{d/2}(-1) is.

Every positive answer ships a constructive lattice witness (hyperbolic
plane, isotropic class, Pell solution), and every witness is rechecked
against the defining identities before it is returned.
"""

from dataclasses import dataclass, field
from math import gcd
from operator import mul

from .arith import (
    D_MAX,
    factored_two_square_decompositions,
    prime_powers,
    two_square_decompositions,
    xgcd,
)
from .errors import DomainError, LatticeError
from . import intmat
from .forms import BinaryForm, reduce_form, represents, find_prime_1mod4
from .lattice import GramLattice, determinant, twist
from .pell import PellSolution, _negative_pell

__all__ = [
    "D_MAX",
    "CounterexampleFamilyReport",
    "CounterexampleGeneralReport",
    "DivisorReport",
    "K3WitnessReport",
    "LemmaReport",
    "QFormAnalysis",
    "admissible",
    "classify",
    "counterexample_family",
    "counterexample_general",
    "hilb2_criterion",
    "hilb2_witness",
    "k3_witness",
    "labelling_lattice",
    "labelling_normal_form",
    "lemma_checks",
    "qform_rank4",
    "twisted_witness",
]


# ---------------------------------------------------------------------------
# admissibility and the three numerical conditions

def _check_size(d: int) -> None:
    if d > D_MAX:
        raise DomainError(f"d = {d} exceeds the supported limit D_MAX = {D_MAX}")


def admissible(d: int) -> tuple[bool, str]:
    """Whether d occurs as a labelling discriminant, with its divisor label.

    d = 0 (mod 4): a single irreducible divisor "D_d"; d = 2 (mod 8): the
    union of two divisors, reported as "Dprime_union" because Gram data
    alone cannot orient the marking involution that swaps them.
    """
    if d > 0 and d % 4 == 0:
        return True, "D_d"
    if d > 0 and d % 8 == 2:
        return True, "Dprime_union"
    return False, "inadmissible"


def _local_flags(d: int) -> tuple[dict[int, int] | None, bool, bool]:
    """(factors, star2, twisted) for d > 0, from one pass over prime_powers(d).

    star2: 8 does not divide d and no prime 3 (mod 4) divides d.  twisted:
    every prime 3 (mod 4) divides d to an even power.  Both are local, so
    the pass stops at the first prime 3 (mod 4) to an odd power, where both
    fail, and factors is then None: nothing reads the factors of a d
    without the twisted condition.  Otherwise factors = factorize(d).
    """
    factors = {}
    star2 = d % 8 != 0
    for p, e in prime_powers(d):
        if p % 4 == 3:
            if e % 2:
                return None, False, False
            star2 = False
        factors[p] = e
    return factors, star2, True


def _star3(d: int, star2: bool) -> tuple[PellSolution | None, tuple | None]:
    """Fundamental solution of n^2 - (d/2) a^2 = -1 (then a^2 d = 2 n^2 + 2)
    for d > 0 with star2 from _local_flags(d), or None, and the walk of
    pell._negative_pell it read (None where nothing was walked).

    A solution makes -1 a square mod every odd p | d and rules out
    4 | d/2, so star3 implies star2, and the continued fraction of
    sqrt(d/2) is walked only where star2 holds.
    """
    if d % 2 or not star2:
        return None, None
    return _negative_pell(d // 2)


def twisted_witness(d: int):
    """Integers (x, y, i) with 2 x^2 + 2 y^2 = i^2 d and i minimal, or None.

    A witness exists iff d satisfies the twisted condition: squaring i never
    changes the parity of a 3 (mod 4) prime's exponent, so the None answer is
    exact, not a bounded-search artifact.  The scale is exact too: since
    2 = 1^2 + 1^2, d is a sum of two squares iff d/2 is, and iff 2d is.  So
    i = 1 for even d, and i = 2 for odd d, where i = 1 would leave i^2 d odd.
    """
    if d <= 0:
        return None
    _check_size(d)
    factors, _, twisted = _local_flags(d)
    if not twisted:
        return None
    return _twisted_witness(d, _twisted_pairs(d, factors))


def _twisted_pairs(d: int, factors: dict[int, int]) -> list[tuple[int, int]]:
    """two_square_decompositions of i^2 d / 2 (d/2 for even d, 2d for odd
    d), for d > 0 with factors = factorize(d): only the exponent of 2
    differs."""
    twos = factors.get(2, 0) + (1 if d % 2 else -1)
    return factored_two_square_decompositions({**factors, 2: twos})


def _twisted_witness(d: int, pairs: list[tuple[int, int]]):
    """twisted_witness for d > 0 already known to satisfy the twisted
    condition, from pairs = _twisted_pairs(d, factorize(d))."""
    i = 1 if d % 2 == 0 else 2
    x, y = pairs[0]
    if 2 * x * x + 2 * y * y != i * i * d:
        raise AssertionError(f"2 {x}^2 + 2 {y}^2 != {i}^2 {d}")
    return (x, y, i)


# ---------------------------------------------------------------------------
# labelling normal forms


def labelling_normal_form(G: GramLattice) -> tuple[intmat.Matrix, GramLattice]:
    """Reduce a labelling Gram ((-2,0,a),(0,-2,b),(a,b,c)) to normal form.

    Adding integer multiples of the two square -2 generators to the third
    basis vector shifts the off-diagonal pairings by even amounts, so for
    discriminant 2 (mod 8) exactly one of a, b is odd and can be brought to
    1 with the other 0, and for discriminant 4 (mod 8) both are odd and
    become (1, 1).  Returns (T, standard) with T unimodular and
    T^t G T = standard; the determinant d = 2+8k or 4+8k is preserved.
    """
    if G.rank != 3:
        raise LatticeError("normal form is defined for a rank 3 labelling lattice")
    _check_labelling(G)
    a, b = G.gram[0][2], G.gram[1][2]
    d = determinant(G)
    if d % 8 == 0:
        raise LatticeError("normal form defined for discriminant 2 or 4 (mod 8)")
    if d % 8 not in (2, 4):
        raise AssertionError(f"labelling discriminant {d} is not 2 or 4 (mod 8)")
    if d % 8 == 2:
        if a % 2 == 1:
            alpha, beta = (a - 1) // 2, b // 2
        else:
            alpha, beta = a // 2, (b - 1) // 2
    else:
        alpha, beta = (a - 1) // 2, (b - 1) // 2
    T = ((1, 0, alpha), (0, 1, beta), (0, 0, 1))
    std = intmat.mat_mul(intmat.mat_mul(intmat.transpose(T), G.gram), T)
    standard = GramLattice(std)
    if determinant(standard) != d:
        raise AssertionError(f"the normal form {std} does not keep det {d}")
    if std[2][2] % 2:
        raise AssertionError(f"the normal form {std} is odd")
    return T, standard


def _labelling_gram(d: int) -> intmat.Matrix:
    """The Gram of labelling_lattice(d), as a tuple, with no size check."""
    if d % 8 == 2:
        return ((-2, 0, 1), (0, -2, 0), (1, 0, 2 * ((d - 2) // 8)))
    if d % 8 == 4:
        return ((-2, 0, 1), (0, -2, 1), (1, 1, 2 * ((d - 4) // 8)))
    raise DomainError("normal form defined for d = 2 or 4 (mod 8)")


def labelling_lattice(d: int) -> GramLattice:
    """The normal-form labelling lattice of discriminant d = 2 or 4 (mod 8):
    ((-2,0,1),(0,-2,0),(1,0,2k)) with d = 2+8k, or
    ((-2,0,1),(0,-2,1),(1,1,2k)) with d = 4+8k."""
    _check_size(d)
    return GramLattice(_labelling_gram(d))


# ---------------------------------------------------------------------------
# Hilbert-square witnesses


def hilb2_witness(d: int):
    """Normal-form lattice and isotropic class w certifying the
    Hilbert-square criterion, or None when the Pell condition fails.

    With (n, a) the fundamental solution of n^2 - (d/2) a^2 = -1:
    d = 2 (mod 8) forces n even and w = ((a-1)/2, n/2, a);
    d = 4 (mod 8) forces n odd, a = 1 (mod 4) and w = ((a-1)/2, (a-n)/2, a).
    Either way w.w = 0 and lambda1.w = 1, so <lambda1, lambda2, w> has
    determinant 2 m^2 + 2 where m is the remaining pairing.
    """
    ok, _ = admissible(d)
    if not ok:
        raise DomainError(f"d={d} is not an admissible discriminant")
    _check_size(d)
    sol, _ = _star3(d, _local_flags(d)[1])
    if sol is None:
        return None
    gram = _labelling_gram(d)
    return GramLattice(gram), _hilb2_witness(d, gram, sol)


def _hilb2_witness(d: int, gram: intmat.Matrix, sol: PellSolution) -> tuple[int, int, int]:
    """The isotropic class w of hilb2_witness for admissible d, from
    gram = _labelling_gram(d) and the solution sol of P_{d/2}(-1)."""
    n, a = sol.n, sol.a
    if d % 8 == 0:
        raise AssertionError(f"a^2 d = 2n^2 + 2 is impossible for 8 | d = {d}")
    if d % 8 == 2:
        if n % 2:
            raise AssertionError(f"d = {d} = 2 (mod 8) forces n even, n = {n}")
        w = ((a - 1) // 2, n // 2, a)
    else:
        if n % 2 == 0:
            raise AssertionError(f"d = {d} = 4 (mod 8) forces n odd, n = {n}")
        if a % 4 != 1:
            raise AssertionError(f"a = {a} is not 1 (mod 4), as a product of primes 1 (mod 4) is")
        w = ((a - 1) // 2, (a - n) // 2, a)
    # G w and w.Gw as sums of products on the unpacked Gram
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = gram
    w0, w1, w2 = w
    gw0 = g00 * w0 + g01 * w1 + g02 * w2
    if w0 * gw0 + w1 * (g10 * w0 + g11 * w1 + g12 * w2) + w2 * (g20 * w0 + g21 * w1 + g22 * w2):
        raise AssertionError(f"w = {w} is not isotropic")
    if gw0 != 1:
        raise AssertionError(f"lambda1.w = (G w)_0 = {gw0}, not 1")
    return w


def _check_labelling(L: GramLattice) -> None:
    """Reject a Gram that is not an even lattice of rank 2 to 4 whose first
    two basis vectors are lambda1, lambda2 with Gram diag(-2,-2)."""
    if not 2 <= L.rank <= 4:
        raise LatticeError("labelling lattice rank must be between 2 and 4")
    if not L.is_even():
        raise LatticeError("labelling lattice must be even")
    g = L.gram
    if g[0][0] != -2 or g[1][1] != -2 or g[0][1] != 0:
        raise LatticeError(
            "the first two basis vectors (lambda1, lambda2) must pair as diag(-2,-2)"
        )


def _labelling_det(gram: intmat.Matrix, w) -> int:
    """det of the pairings of (e1, e2, w) under gram."""
    gw = intmat.mat_vec(gram, w)
    ww = sum(map(mul, w, gw))
    return intmat.bareiss_det(
        ((gram[0][0], gram[0][1], gw[0]), (gram[1][0], gram[1][1], gw[1]), (gw[0], gw[1], ww))
    )


def labelling_det(L: GramLattice, w) -> int:
    """Determinant of <lambda1, lambda2, w>.

    L is presented in the basis (lambda1, lambda2, ...) of the square -2
    convention; a Gram in the square +2 convention is passed as
    ``twist(L, -1)``.
    """
    _check_labelling(L)
    w = tuple(w)
    if len(w) != L.rank:
        raise LatticeError("vector length must equal the lattice rank")
    return _labelling_det(L.gram, w)


def hilb2_criterion(L: GramLattice, w) -> bool:
    """True iff w.w = 0 and |lambda1 . w| = 1.

    L is presented in the basis (lambda1, lambda2, ...) of the square -2
    convention (a +2 convention is passed as ``twist(L, -1)``).  The two
    unimodular overlattices differ only in which of lambda1, lambda2 has
    the unit pairing; to test lambda2, swap the first two rows and columns
    of the Gram and the first two coordinates of w.  When true, the
    labelling <lambda1, lambda2, w> has determinant 2 n^2 + 2 for
    n = lambda2 . w.
    """
    _check_labelling(L)
    w = tuple(w)
    return L.norm(w) == 0 and abs(L.pairing(intmat.identity(L.rank)[0], w)) == 1


# ---------------------------------------------------------------------------
# the rank-4 quadratic form and its lemma suite


@dataclass(frozen=True)
class QFormAnalysis:
    """Labelling-discriminant data of a rank-4 model with hyperbolic block.

    For pairings (k, l) and (m, n) of the two hyperbolic generators against
    the distinguished classes, the discriminant of
    <lambda1, lambda2, x kappa1 + y kappa2> is the binary quadratic
    Q(x, y) = 8xy + 2(kx+my)^2 + 2(lx+ny)^2 = A x^2 + B xy + C y^2 with
    A = 2k^2+2l^2, B = 8+4km+4ln, C = 2m^2+2n^2; h = gcd(A, B, C) and
    q = Q/h is primitive.
    """

    k: int
    l: int
    m: int
    n: int
    A: int
    B: int
    C: int
    h: int
    q: BinaryForm

    def Q(self, x: int, y: int) -> int:
        return self.h * self.q(x, y)

    def rank4_gram(self) -> intmat.Matrix:
        k, l, m, n = self.k, self.l, self.m, self.n
        return ((-2, 0, k, m), (0, -2, l, n), (k, l, 0, 1), (m, n, 1, 0))

    def is_positive_definite(self) -> bool:
        return self.q.is_positive_definite()


def qform_rank4(k: int, l: int, m: int, n: int) -> QFormAnalysis:
    """Build the labelling-discriminant form and pin it to the 3x3
    labelling determinant on rank4_gram(): raise AssertionError unless
    Q(x, y) is the determinant of <e1, e2, x e3 + y e4> at every (x, y).

    Both sides are binary quadratic forms in (x, y): the labelling Gram has
    the fixed block of e1, e2, the pairings of w = x e3 + y e4 with e1, e2,
    linear in (x, y), and w.w, quadratic, so every term of its
    determinant has degree 2.  A binary quadratic a x^2 + b xy + c y^2 is
    pinned by its values at (1,0), (0,1), (1,1), which are a, c and
    a + b + c, so agreement there is agreement everywhere.
    """
    A = 2 * k * k + 2 * l * l
    B = 8 + 4 * k * m + 4 * l * n
    C = 2 * m * m + 2 * n * n
    h = gcd(gcd(A, B), C)
    q = BinaryForm(A // h, B // h, C // h)
    qa = QFormAnalysis(k=k, l=l, m=m, n=n, A=A, B=B, C=C, h=h, q=q)
    gram = qa.rank4_gram()
    for x, y in ((1, 0), (0, 1), (1, 1)):
        if _labelling_det(gram, (0, 0, x, y)) != qa.Q(x, y):
            raise AssertionError(f"Q at ({x}, {y}) is not the labelling determinant of {gram}")
    return qa


def _negate_kappa2(gram: intmat.Matrix) -> intmat.Matrix:
    """The rank-4 gram with its last basis vector, kappa2, negated."""
    signs = (1, 1, 1, -1)
    return tuple(tuple(s * t * x for t, x in zip(signs, row)) for s, row in zip(signs, gram))


@dataclass(frozen=True)
class LemmaReport:
    """Instance checks of the content-and-coefficient constraints on q.

    h_not_div_8 and b_even are None ("hypothesis not met") when all four
    pairings are even, which is exactly the case 8 | h; prime_status is
    "found", "not-positive-definite", "hypothesis-not-met" or
    "proven-absent", the last a proof that q represents no prime 1 (mod 4)
    and so a counterexample to the lemma.
    """

    all_even: bool
    h: int
    h_odd_primes_1mod4: bool
    h_not_div_8: bool | None
    a_not_3mod4: bool
    c_not_3mod4: bool
    b_even: bool | None
    prime_status: str
    prime: tuple[int, int, int] | None

    def conclusions_hold(self) -> bool:
        checks = [self.h_odd_primes_1mod4, self.a_not_3mod4, self.c_not_3mod4]
        if self.h_not_div_8 is not None:
            checks.append(self.h_not_div_8)
        if self.b_even is not None:
            checks.append(self.b_even)
        return all(checks)


def lemma_checks(qa: QFormAnalysis) -> LemmaReport:
    """Check the divisor constraints on h = gcd of the coefficients, the
    residues of the primitive part, and find the least represented prime
    1 (mod 4) when q is positive definite (``forms.find_prime_1mod4``).

    A positive definite q whose pairings are not all even always reaches
    "found": the lemma makes b even, so a or c is odd since q is primitive,
    and the lemma makes it not 3, hence 1 (mod 4); by the argument of
    ``find_prime_1mod4``, q then represents infinitely many primes
    1 (mod 4).  Raises DomainError when none is at most D_MAX.
    """
    all_even = all(v % 2 == 0 for v in (qa.k, qa.l, qa.m, qa.n))
    if all_even:
        status, prime = "hypothesis-not-met", None
    elif not qa.q.is_positive_definite():
        status, prime = "not-positive-definite", None
    else:
        prime = find_prime_1mod4(qa.q)
        status = "proven-absent" if prime is None else "found"
    return LemmaReport(
        all_even=all_even,
        h=qa.h,
        h_odd_primes_1mod4=all(p % 4 != 3 for p, _ in prime_powers(qa.h)),
        h_not_div_8=None if all_even else qa.h % 8 != 0,
        a_not_3mod4=qa.q.a % 4 != 3,
        c_not_3mod4=qa.q.c % 4 != 3,
        b_even=None if all_even else qa.q.b % 2 == 0,
        prime_status=status,
        prime=prime,
    )


# ---------------------------------------------------------------------------
# K3 witnesses


@dataclass(frozen=True)
class K3WitnessReport:
    """Outcome of ``k3_witness`` on a labelling lattice of rank 3 or 4,
    given in the basis (lambda1, lambda2, ...) with lambda1, lambda2 of
    square -2.

    Rank 3: the decision is exact.  Status "found" carries the plane (v, w)
    and the complement generator g with g.g = -det; "proven-absent" means
    the lattice contains no hyperbolic plane, which happens exactly when
    the K3 condition fails for its determinant.
    Rank 4: status "found" carries coprime (x, y), in the sign-normalized
    kappa basis, whose labelling discriminant ``disc_raw`` satisfies the K3
    condition; "proven-absent" means 8 divides the content h, so no
    labelling discriminant satisfies it; "not-found-within-bound" is only a
    statement about the labellings with |x|, |y| <= K3_RANK4_BOX and
    discriminant at most D_MAX.  Every rank-4 report carries the form
    analysis ``qform``; its lemma suite is ``lemma_checks(rep.qform)``.
    """

    kind: str
    status: str
    u_basis: tuple | None = None
    complement_gen: tuple | None = None
    gen_norm: int | None = None
    xy: tuple[int, int] | None = None
    disc_raw: int | None = None
    qform: QFormAnalysis | None = None

    def found(self) -> bool:
        return self.status == "found"


def _primitive_two_squares(pairs: list[tuple[int, int]], a: int, b: int) -> tuple[int, int] | None:
    """The first coprime pair of pairs that, taken as (X, Y) in some order,
    has X = a and Y = b (mod 2), in that order; None if there is none."""
    for s, t in pairs:
        if gcd(s, t) != 1:
            continue
        for X, Y in ((s, t), (t, s)):
            if (X - a) % 2 == 0 and (Y - b) % 2 == 0:
                return X, Y
    return None


def _rank3_plane(gram: intmat.Matrix, pairs: list[tuple[int, int]]) -> tuple | None:
    """The plane of k3_witness on a rank-3 labelling Gram with
    d = det gram > 0, from pairs = two_square_decompositions(d/2): the
    tuple (v, w, g, g.g) of the basis (v, w) of U, the complement
    generator g and its norm, or None when the lattice has no plane.

    G v x G w pairs to 0 with both v and w, so g, that vector over its
    content, spans U^perp in L.  U is unimodular, so L = U + <g> and
    det L = det U * g.g = -g.g; the last re-check holds g to that.
    """
    (g00, g01, a), (g10, g11, b), (g20, g21, g22) = gram
    found = _primitive_two_squares(pairs, a, b)
    if found is None:
        return None
    X, Y = found
    v0, v1 = (X + a) // 2, (Y + b) // 2
    # G v = (-X, -Y, t): u = (p, q, 0) has u.v = 1, and w = u + k v with
    # k = -u.u / 2 = p^2 + q^2
    one, p, q = xgcd(-X, -Y)
    k = p * p + q * q
    w0, w1 = p + k * v0, q + k * v1
    v, w = (v0, v1, 1), (w0, w1, k)
    # the re-checks as sums of products on the unpacked Gram (v2 = 1)
    p, q, r = g00 * v0 + g01 * v1 + a, g10 * v0 + g11 * v1 + b, g20 * v0 + g21 * v1 + g22
    s, t, u = g00 * w0 + g01 * w1 + a * k, g10 * w0 + g11 * w1 + b * k, g20 * w0 + g21 * w1 + g22 * k
    if one != 1:
        raise AssertionError(f"gcd({X}, {Y}) = {one}, not 1")
    if v0 * p + v1 * q + r or w0 * s + w1 * t + k * u or v0 * s + v1 * t + u != 1:
        raise AssertionError(f"({v}, {w}) does not span U")
    x, y, z = q * u - r * t, r * s - p * u, p * t - q * s
    c = gcd(x, y, z) if (x or y or z) > 0 else -gcd(x, y, z)
    x, y, z = x // c, y // c, z // c
    gen_norm = (
        x * (g00 * x + g01 * y + a * z) + y * (g10 * x + g11 * y + b * z) + z * (g20 * x + g21 * y + g22 * z)
    )
    if gen_norm != -intmat.bareiss_det(gram):
        raise AssertionError(f"L = U + <g> forces g.g = -det L, g.g = {gen_norm}")
    return v, w, (x, y, z), gen_norm


def _k3_entry(plane: tuple | None) -> dict:
    """The "k3" witness of classify, as JSON data, from a _rank3_plane
    result."""
    if plane is None:
        return {"status": "proven-absent", "u_basis": None, "complement_gen": None, "gen_norm": None}
    v, w, g, gen_norm = plane
    return {"status": "found", "u_basis": [list(v), list(w)], "complement_gen": list(g), "gen_norm": gen_norm}


# |x|, |y| box of the rank-4 k3_witness search
K3_RANK4_BOX = 20


def _shell_pairs(b: int):
    """Yield the coprime (x, y) with |x|, |y| <= b whose first nonzero
    coordinate is positive ((x, y) and (-x, -y) span the same labelling),
    by sup-norm r, then lexicographically."""
    for r in range(1, b + 1):
        for x in range(r + 1):
            for y in range(-r, r + 1) if x == r else (-r, r):
                if (x or y > 0) and gcd(x, y) == 1:
                    yield x, y


def k3_witness(L: GramLattice) -> K3WitnessReport:
    """Hyperbolic-plane criterion certifying the K3 association on L.

    L is a labelling lattice presented in its labelling basis: the first two
    basis vectors are lambda1, lambda2 of square -2 (a Gram in the square +2
    convention is passed as ``twist(L, -1)``).

    Rank 3 (basis lambda1, lambda2, tau, so the Gram is
    ((-2,0,a),(0,-2,b),(a,b,c)) with d = det = 2(a^2 + b^2 + 2c)): an exact
    construction, no search.  Completing squares, v = (x, y, z) is
    isotropic iff X^2 + Y^2 = (d/2) z^2 with X = 2x - az, Y = 2y - bz, and
    G v = (-X, -Y, t) with z t = xX + yY (from v.Gv = 0).  A plane U
    through v needs v.w = 1 for some w, i.e. G v of content 1.

    * Found: take z = 1 and the first decomposition X^2 + Y^2 = d/2 (by
      increasing min(X, Y), built from the factors of d/2 by
      ``arith.two_square_decompositions``) with gcd(X, Y) = 1 and
      X = a, Y = b (mod 2); then v = ((X+a)/2, (Y+b)/2, 1)
      is integral and isotropic, G v has content 1, and the plane is
      completed in closed form: (1, p, q) = xgcd(-X, -Y) gives
      u = (p, q, 0) with v.u = -Xp - Yq = 1, and w = u - (u.u/2) v
      = (p + k v_0, q + k v_1, k) with k = p^2 + q^2 (u.u = -2k).  This is
      the w of ``lattice.hyperbolic_partner``, whose xgcd fold over
      G v = (-X, -Y, t) ends after its first step because gcd(X, Y) = 1.
      L = U + <g>, so the complement generator
      has g.g = -d, rechecked on g = G v x G w over its content (sign
      making the first nonzero entry positive, the Hermite convention).
    * Absent, prime p = 3 (mod 4) dividing d/2: p | X^2 + Y^2 forces p | X
      and p | Y, so content 1 gives p not dividing t; then p | z t gives
      p | z, hence p | 2x and p | 2y, and p divides G v, a contradiction.
    * Absent, 8 | d: a^2 + b^2 = d/2 - 2c = 0 (mod 4) forces a, b even, so
      every entry of G is even and no pairing v.w is odd.
    * Absent, d <= 0: U is unimodular, so L = U + <g> with g.g = -d >= 0
      would have one negative direction, but lambda1, lambda2 span a
      negative definite plane.

    Since d = 2 or 4 (mod 8) puts no prime 3 (mod 4) in d/2 exactly when
    the K3 condition holds, and then d/2 (not divisible by 4) has a
    primitive decomposition, whose parities always match a and b in one
    order, "found" holds iff d > 0 and d meets the K3 condition (the
    ``star2`` flag of ``classify``): the status is
    "found" or "proven-absent", never bounded.  d <= 0 and 8 | d are
    answered from d alone, at any size; any other d past D_MAX is refused
    with LatticeError before d/2 is factored.

    Rank 4 (basis lambda1, lambda2, kappa1, kappa2 with unimodular
    hyperbolic kappa-block): analyze the labelling-discriminant form Q and
    return the least coprime (x, y) with |x|, |y| <= K3_RANK4_BOX (by
    sup-norm, then lexicographically, first nonzero coordinate positive)
    whose labelling discriminant Q(x, y) satisfies the K3 condition with
    0 < Q(x, y) <= D_MAX.  The pairs are generated shell by shell and the
    scan stops at the first hit.  For coprime (x, y) the rows lambda1,
    lambda2, x kappa1 + y kappa2 are already primitive (they extend to a
    basis), so no saturation is needed.  The normalized Gram is
    ``qa.rank4_gram()``, on which ``qform_rank4`` pinned Q to the
    labelling determinant at every (x, y), so the scan reads Q alone.

    * Absent, 8 | h: every labelling discriminant Q(x, y) = h q(x, y) is
      0 (mod 8), while the K3 condition needs 8 not to divide it; the
      status is "proven-absent", with no box scan.  Otherwise no exact
      argument is known, and an empty scan is "not-found-within-bound": a
      discriminant past D_MAX lies outside the search, it is not refused.
    * Present, q positive definite and 8 not dividing h: the witness
      (x, y) of ``find_prime_1mod4(q)``, of prime value p = 1 (mod 4),
      is coprime and has Q(x, y) = h p, which meets the K3 condition: 8
      does not divide h p, and the odd primes of h are 1 (mod 4)
      (``lemma_checks``).  When
      h p <= D_MAX, "not-found-within-bound" for such q therefore reflects
      K3_RANK4_BOX, never absence.
    """
    _check_labelling(L)
    if L.rank == 3:
        d = determinant(L)
        if d <= 0 or d % 8 == 0:
            return K3WitnessReport(kind="rank3", status="proven-absent")
        if d > D_MAX:
            raise LatticeError(f"det L = {d} exceeds the supported limit D_MAX = {D_MAX}")
        plane = _rank3_plane(L.gram, two_square_decompositions(d // 2))
        if plane is None:
            return K3WitnessReport(kind="rank3", status="proven-absent")
        v, w, g, gen_norm = plane
        return K3WitnessReport(
            kind="rank3", status="found", u_basis=(v, w), complement_gen=g, gen_norm=gen_norm
        )
    if L.rank != 4:
        raise LatticeError("K3 witness search supports rank 3 and 4 lattices")

    # normalize the hyperbolic block by negating kappa2
    g = _negate_kappa2(L.gram) if L.gram[2][3] == -1 else L.gram
    if g[2][2] != 0 or g[3][3] != 0 or g[2][3] != 1:
        raise LatticeError("kappa generators must span a unimodular hyperbolic plane")
    k, m = g[0][2], g[0][3]
    l, n = g[1][2], g[1][3]
    qa = qform_rank4(k, l, m, n)
    if g != qa.rank4_gram():
        raise AssertionError(f"the normalized Gram {g} is not the model {qa.rank4_gram()}")
    if qa.h % 8 == 0:
        return K3WitnessReport(kind="rank4", status="proven-absent", qform=qa)
    for x, y in _shell_pairs(K3_RANK4_BOX):
        raw = qa.Q(x, y)
        if 0 < raw <= D_MAX and _local_flags(raw)[1]:
            return K3WitnessReport(
                kind="rank4", status="found", xy=(x, y), disc_raw=raw, qform=qa
            )
    return K3WitnessReport(kind="rank4", status="not-found-within-bound", qform=qa)


# ---------------------------------------------------------------------------
# the rank-4 counterexample family (square +2 convention)


@dataclass(frozen=True)
class CounterexampleFamilyReport:
    n: int
    lattice: GramLattice
    kappa1: tuple
    kappa2: tuple
    kappa_checks: bool
    form: BinaryForm
    reduced_form: BinaryForm
    represents_one: tuple[int, int] | None
    min_abs_disc: int | None
    all_discs_divisible_by_8: bool
    d8_member: bool

    def to_summary(self) -> dict:
        return {
            "n": self.n,
            "kappa_checks": self.kappa_checks,
            "form": self.form.to_text(),
            "reduced_form": self.reduced_form.to_text(),
            "represents_one": list(self.represents_one) if self.represents_one else None,
            "min_abs_disc": self.min_abs_disc,
            "all_discs_divisible_by_8": self.all_discs_divisible_by_8,
            "d8_member": self.d8_member,
        }


def counterexample_family(n: int) -> CounterexampleFamilyReport:
    """The one-parameter family of rank-4 models (sign convention with
    classes of square +2) whose hyperbolic plane never yields a K3
    labelling for n > 1.

    This is counterexample_general(1, 1, 1, n): kappa1 = lambda1 + lambda2
    + tau1 and kappa2 = lambda1 + n lambda2 + tau2 span a copy of U.  The
    labelling by tau = x tau1 + y tau2 has discriminant
    det diag(2, 2, tau.tau) = -8 form(x, y), form = 2x^2 + (1+2n)xy +
    (1+n^2)y^2, so every one is divisible by 8.  counterexample_general has
    tied the discriminant of the labelling a kappa1 + b kappa2 on this very
    Gram to -Q(a, -b) = -(A a^2 - B ab + C b^2), so -8 form is
    that determinant exactly when 8 form has the coefficients (A, -B, C),
    which is checked here.  form has discriminant -4n^2 + 4n - 7 < 0,
    so the least |disc| is 8 times the first coefficient of its reduced
    form; it represents 1 exactly for n <= 1.
    """
    if n < 0:
        raise DomainError("family parameter must be non-negative")
    gen = counterexample_general(1, 1, 1, n)
    form = BinaryForm(2, 1 + 2 * n, 1 + n * n)
    qa = gen.qform
    if (8 * form.a, 8 * form.b, 8 * form.c) != (qa.A, -qa.B, qa.C):
        raise AssertionError(f"8 form for n = {n} is not (A, -B, C) = {(qa.A, -qa.B, qa.C)} of the general model")
    reduced, _ = reduce_form(form)
    rep1 = represents(form, 1)
    return CounterexampleFamilyReport(
        n=n,
        lattice=gen.lattice,
        kappa1=gen.kappa1,
        kappa2=gen.kappa2,
        kappa_checks=gen.kappa_checks,
        form=form,
        reduced_form=reduced,
        represents_one=rep1,
        min_abs_disc=8 * reduced.a,
        all_discs_divisible_by_8=gen.all_discs_divisible_by_8,
        d8_member=rep1 is not None,
    )


@dataclass(frozen=True)
class CounterexampleGeneralReport:
    k: int
    l: int
    m: int
    n: int
    lattice: GramLattice
    kappa1: tuple
    kappa2: tuple
    kappa_checks: bool
    basis_change_matches: bool
    pairings_even: bool
    all_discs_divisible_by_8: bool
    qform: QFormAnalysis


def counterexample_general(k: int, l: int, m: int, n: int) -> CounterexampleGeneralReport:
    """The general rank-4 family (square +2 convention) whose labellings all
    have discriminant divisible by 8.

    Excludes (k, l) in {(1,0), (0,1)}, where the first hyperbolic generator
    itself produces a unit pairing.  Verifies that kappa1 = k lambda1 +
    l lambda2 + tau1, kappa2 = m lambda1 + n lambda2 + tau2 span U and that
    the basis change to (lambda1, lambda2, kappa1, kappa2) has the
    doubled-row Gram, off which pairings_even reads the parity of every
    pairing of a labelling a kappa1 + b kappa2.  Twisted by -1 and with
    kappa2 negated, that Gram must be the rank4_gram() of
    qform_rank4(-2k, -2l, 2m, 2n), which pinned Q to its labelling
    determinant; else AssertionError.  The twist multiplies a 3x3
    determinant by -1 and the sign change maps b to -b, so
    disc(a, b) = -Q(a, -b), whose values have gcd h: every disc is
    0 (mod 8) exactly when 8 | h.
    """
    if (k, l) in ((1, 0), (0, 1)):
        raise DomainError("family excludes (k, l) = (1,0) and (0,1)")
    G = GramLattice(
        (
            (2, 0, 0, 0),
            (0, 2, 0, 0),
            (0, 0, -2 * (k * k + l * l), 1 - 2 * k * m - 2 * l * n),
            (0, 0, 1 - 2 * k * m - 2 * l * n, -2 * (m * m + n * n)),
        )
    )
    kappa1 = (k, l, 1, 0)
    kappa2 = (m, n, 0, 1)
    checks = (
        G.norm(kappa1) == 0
        and G.norm(kappa2) == 0
        and G.pairing(kappa1, kappa2) == 1
    )
    B = ((1, 0, 0, 0), (0, 1, 0, 0), (k, l, 1, 0), (m, n, 0, 1))
    got = intmat.mat_mul(intmat.mat_mul(B, G.gram), intmat.transpose(B))
    expected = (
        (2, 0, 2 * k, 2 * m),
        (0, 2, 2 * l, 2 * n),
        (2 * k, 2 * l, 0, 1),
        (2 * m, 2 * n, 1, 0),
    )
    basis_ok = got == expected
    pair_even = all(
        x % 2 == 0
        for x in (got[0][2], got[0][3], got[1][2], got[1][3], got[2][2], got[3][3])
    )
    qa = qform_rank4(-2 * k, -2 * l, 2 * m, 2 * n)
    if _negate_kappa2(twist(GramLattice(got), -1).gram) != qa.rank4_gram():
        raise AssertionError(f"{got} twisted by -1 with kappa2 negated is not the model {qa.rank4_gram()}")
    return CounterexampleGeneralReport(
        k=k,
        l=l,
        m=m,
        n=n,
        lattice=G,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa_checks=checks,
        basis_change_matches=basis_ok,
        pairings_even=pair_even,
        all_discs_divisible_by_8=qa.h % 8 == 0,
        qform=qa,
    )


# ---------------------------------------------------------------------------
# Hilbert-square vs double EPW sextic (isomorphism rather than birationality)


def _p2d5_obstructed(d: int, factors: dict[int, int]) -> bool:
    """Whether n^2 - 2d a^2 = 5 has no solution modulo some prime power,
    for even d > 0 with factors = factorize(d).

    A solution needs, for every prime:
    * 2: 4 | d would give n^2 = 5 (mod 8);
    * odd p | d, p != 5: n^2 = 5 (mod p), so (5/p) = 1, i.e. p = +-1 (mod 5);
    * 5: 25 | d would give 5 | n, so 25 | 5.
    The remaining 5-adic condition, that 2d (if 5 does not divide d) or
    2d/5 (if 5 || d) is a square mod 5, adds nothing: once the three above
    pass, the Hilbert symbols (5, 2d)_v are 1 at every v but 5, so by
    reciprocity also at 5, and that symbol is the Legendre symbol of 2d,
    or of 2d/5.  True is a proof of unsolvability; False leaves the answer
    to the continued fraction (``_p2d5_unsolvable``).
    """
    return (
        d % 4 == 0
        or any(p % 5 in (2, 3) for p in factors if p != 2)
        or factors.get(5, 0) >= 2
    )


def _p2d5_unsolvable(d: int, factors: dict[int, int], walk: tuple) -> bool:
    """Whether n^2 - 2d a^2 = 5 has no solution, for even d > 0 with star3,
    factors = factorize(d) and walk = (terms, qs, q0, cubed) the walk of
    ``pell._negative_pell(m)``, m = d/2.

    Past the local obstructions m is odd, so m = 1 (mod 4) as P_m(-1) is
    solvable.  2d a^2 = m (2a)^2, and every solution of x^2 - m y^2 = 5 has
    y even (y odd gives x^2 = 2 mod 4) and gcd(x, y) = 1 (5 is squarefree).
    The period walked is odd, so norms +5 and -5 come together.

    * Walk of sqrt(m) (q0 = 1): for d > 50, 5 < sqrt(m), so each solution
      is a convergent (Lagrange), and one exists iff 5 is a Q_k of the
      half period.  Below 51 only d = 2 and d = 10 pass star3 and the
      obstructions, and (3, 1) and (5, 1) solve P_4(5) and P_20(5); the
      d > 50 guard keeps the empty half period of d = 2 from reading as
      unsolvable.
    * Walk of (1 + sqrt(m)) / 2 (q0 = 2, m = 5 (mod 8), m > 100): a
      convergent A/B of it gives alpha = (2A - B + B sqrt(m)) / 2 in
      Z[(1 + sqrt(m)) / 2] of norm (-1)^(k+1) Q_{k+1} / 2.  An element of
      norm 5 with B > 0 is one of these: |A/B - (1 + sqrt(m)) / 2| =
      10 / (B (2A - B + B sqrt(m))) < 5 / (B^2 sqrt(m)) < 1 / (2 B^2) for
      m > 100 (Lagrange for this order), and gcd(A, B) = 1 as 5 is
      squarefree.  So Z[(1 + sqrt(m)) / 2] has an element of norm 5 iff
      10 is a Q_k of the half period.  Z[sqrt(m)] = Z + 2 Z[(1 + sqrt(m)) / 2]
      holds those with B even.  At unit index 3 (cubed) the units of
      Z[(1 + sqrt(m)) / 2] run through the three classes of
      (Z[(1 + sqrt(m)) / 2] / 2)^* = F_4^*, so some unit multiple of
      alpha lies in Z[sqrt(m)].  At index 1 every unit is 1 mod 2, and
      the generators of the (conjugate) ideals of norm 5 are conjugate,
      so P_m(5) is solvable iff B_{k-1} is even at any one Q_k = 10.
      There B_{l-1} = B_s^2 + B_{s-1}^2 is even and gcd(B_s, B_{s-1}) = 1,
      so both are odd, and the parity is walked from the nearer end of
      the half period, forward from B_0 or back from B_s.
    """
    if _p2d5_obstructed(d, factors):
        return True
    if d <= 50:
        return False
    terms, qs, q0, cubed = walk
    if 5 * q0 not in qs:
        return True
    if q0 == 1 or cubed:
        return False
    # B_{k-1} mod 2, by the row walk of pell._denominators on bits alone,
    # from (B_0, B_{-1}) = (1, 0) or back from (B_s, B_{s-1}) = (1, 1)
    k = qs.index(10)
    if 2 * k <= len(qs):
        b, b1 = 1, 0
        for a in terms[:k]:
            b, b1 = (a * b + b1) & 1, b
    else:
        b, b1 = 1, 1
        for a in reversed(terms[k:]):
            b, b1 = b1, (b - a * b1) & 1
    return b == 1


# ---------------------------------------------------------------------------
# the full per-discriminant report


@dataclass(frozen=True, init=False)
class DivisorReport:
    """Everything this package decides about one discriminant."""

    d: int
    admissible: bool
    divisor_label: str
    star2: bool
    star2_twisted: bool
    star3: PellSolution | None
    dm_isomorphic: bool | None
    witnesses: dict = field(default_factory=dict)

    def __init__(
        self,
        d: int,
        admissible: bool,
        divisor_label: str,
        star2: bool,
        star2_twisted: bool,
        star3: PellSolution | None,
        dm_isomorphic: bool | None,
        witnesses: dict | None = None,
    ):
        # every field in one store, where the generated __init__ of a
        # frozen dataclass pays one object.__setattr__ per field
        w = {} if witnesses is None else witnesses
        object.__setattr__(self, "__dict__", {
            "d": d,
            "admissible": admissible,
            "divisor_label": divisor_label,
            "star2": star2,
            "star2_twisted": star2_twisted,
            "star3": star3,
            "dm_isomorphic": dm_isomorphic,
            "witnesses": w,
        })
        if star3 is not None and not star2:
            raise LatticeError("implication chain violated: star3 without star2")
        if star2 and not star2_twisted:
            raise LatticeError("implication chain violated: star2 without twisted")
        if (dm_isomorphic is None) != (star3 is None):
            raise LatticeError("dm_isomorphic must be None exactly when star3 is None")
        if admissible != (d > 0 and d % 8 in (0, 2, 4)):
            raise LatticeError("admissibility flag inconsistent with d mod 8")
        if w.get("twisted") and not star2_twisted:
            raise LatticeError("twisted witness without star2_twisted")
        if w.get("hilb2") and star3 is None:
            raise LatticeError("hilb2 witness without star3")
        if w.get("k3") and (w["k3"]["status"] == "found") != star2:
            raise LatticeError("k3 witness status disagrees with star2")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "admissible": self.admissible,
            "divisor": self.divisor_label,
            "star2": self.star2,
            "star2_twisted": self.star2_twisted,
            "star3": self.star3.to_dict() if self.star3 else None,
            "dm_isomorphic": self.dm_isomorphic,
            "witnesses": self.witnesses,
        }


def classify(d: int, with_witnesses: bool = True) -> DivisorReport:
    """Assemble the full report: admissibility, the three conditions, the
    Debarre-Macri flag, and constructive witnesses for every positive answer.

    ``with_witnesses=False`` skips the witness searches and returns the bare
    decision flags (microseconds instead of milliseconds per discriminant).
    Raises DomainError for d > D_MAX.

    This is the package's one decider of the four flags.  d is trial
    divided once, and only up to the first prime 3 (mod 4) to an odd
    power (``_local_flags``), and sqrt(d/2) is walked at most once:
    P_{d/2}(-1) only where star2 holds (``_star3``), and P_{2d}(5) is read
    off the Q_k of that same half period where no local obstruction
    (``_p2d5_obstructed``) already makes it unsolvable
    (``_p2d5_unsolvable``).
    """
    _check_size(d)
    ok, label = admissible(d)
    if d <= 0:
        return DivisorReport(
            d=d,
            admissible=False,
            divisor_label="inadmissible",
            star2=False,
            star2_twisted=False,
            star3=None,
            dm_isomorphic=None,
            witnesses={"twisted": None, "hilb2": None, "k3": None},
        )
    # one pass over the prime powers of d, stopped where the twisted
    # condition fails, and sqrt(d/2) walked at most once; every flag and
    # witness reuses them
    factors, s2, s2t = _local_flags(d)
    s3, walk = _star3(d, s2)
    dm = None if s3 is None else _p2d5_unsolvable(d, factors, walk)

    witnesses: dict = {"twisted": None, "hilb2": None, "k3": None}
    if with_witnesses:
        # one list of the pairs X^2 + Y^2 = d/2 (2d for odd d), built from
        # the factors, serves the twisted and the K3 witness; without the
        # twisted condition there is none
        pairs = _twisted_pairs(d, factors) if s2t else []
        if s2t:
            x, y, i = _twisted_witness(d, pairs)
            witnesses["twisted"] = {"x": x, "y": y, "i": i}
        if ok and d % 8 in (2, 4):
            # one labelling Gram serves both witnesses (star3 implies
            # star2, which rules out d = 0, 6 (mod 8))
            gram = _labelling_gram(d)
            if s3 is not None:
                w = _hilb2_witness(d, gram, s3)
                witnesses["hilb2"] = {"gram": [list(r) for r in gram], "w": list(w)}
            witnesses["k3"] = _k3_entry(_rank3_plane(gram, pairs))
    return DivisorReport(
        d=d,
        admissible=ok,
        divisor_label=label,
        star2=s2,
        star2_twisted=s2t,
        star3=s3,
        dm_isomorphic=dm,
        witnesses=witnesses,
    )
