"""Named verification checks behind the ``verify-paper`` command.

Each check recomputes one of the arithmetic identities the package is built
on, from scratch, and reports pass/fail with the identity as its anchor.
An identity stated for many instances is written once, as a per-instance
predicate (``normal_form_failure(k)``, ``pell_parity_failure(m)``, ...)
that returns None or the failure detail; its check sweeps it over a few
instances, and the acceptance criteria sweep the same predicate over a
wider range.  Fault injection patches a name this module calls (such as
``standard_lattice``) to return a corrupted object that must fail its check.

Four checks prove a polynomial identity for all integers rather than
sample it.  The difference of its two sides is a polynomial; one of degree
at most t_i in its i-th variable that vanishes on a grid S_1 x ... x S_n
with |S_i| > t_i is zero (Alon, Combinatorial Nullstellensatz, Combin.
Probab. Comput. 8, 1999, Lemma 2.1).  The degree of a 3x3 determinant in
one variable is at most the sum over its rows of that variable's largest
degree among the row's entries, so each grid is read off the Gram:

* ``normal-form-determinants``: k is one entry, degree 1, k in {0, 1};
* ``isotropic-labelling-det``: x and y each fill two entries in two rows,
  degree at most 2 in each, (x, y) in {0, 1, 2}^2;
* ``hilb2-labelling-det``: n fills two entries, degree 2, n in {0, 1, 2};
* ``rank4-q-identity``: for fixed (k, l, m, n) both sides are binary
  quadratic forms in (x, y), which ``qform_rank4`` pins against each
  other at three points or raises.  Each of k, l, m, n enters the
  labelling Gram through kx+my or lx+ny, in two entries in two rows, and
  A, B, C are quadratic, so the three coefficients of the difference have
  degree at most 2 in each: (k, l, m, n) in {0, 1, 2}^4, where the
  coefficient formulas and one more point, (x, y) = (1, -1), are checked.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, starmap
from math import isqrt

from . import intmat
from .arith import is_square
from .discriminant import GlueData, check_isotropic, discriminant_group, glue, glue_extension_check
from .forms import BinaryForm
from .lattice import (
    GramLattice,
    Sublattice,
    determinant,
    direct_sum,
    find_hyperbolic_plane,
    mukai_sign_reversed,
    orthogonal_complement,
    signature,
    standard_lattice,
    twist,
)
from .oracle import (
    admissible,
    classify,
    counterexample_family,
    counterexample_general,
    hilb2_criterion,
    hilb2_witness,
    labelling_det,
    lemma_checks,
    qform_rank4,
)
from .pell import negative_pell, pell_general

__all__ = ["CheckResult", "check_list", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    detail: str


_CHECKS = []


def _check(name: str, anchor: str):
    """Register the decorated function as the check ``name`` with its anchor."""

    def register(fn):
        _CHECKS.append((name, anchor, fn))
        return fn

    return register


def _sweep(details, summary):
    """(False, the first failure detail) in a lazy sweep of a per-instance
    predicate, whose None is a pass, or (True, summary) if none fails."""
    detail = next(filter(None, details), None)
    return (True, summary) if detail is None else (False, detail)


@_check("vanishing-lattice",
        "Lambda = E8^2 + U^2 + I(2,0)(2): rank 22, det 4, even, signature (20,2)")
def check_vanishing_lattice():
    L = standard_lattice("Lambda")
    det, sig = determinant(L), signature(L)
    ok = L.rank == 22 and det == 4 and L.is_even() and sig == (20, 2, 0)
    return ok, f"rank={L.rank} det={det} sig={sig}"


@_check("i20-twist", "I(2,0) twisted by 2 is diag(2,2)")
def check_i20_twist():
    L = twist(standard_lattice("I(2,0)"), 2)
    ok = L.gram == ((2, 0), (0, 2))
    return ok, f"gram={L.gram}"


@_check("mukai-lattice", "LambdaTilde = U^4 + E8(-1)^2: rank 24, unimodular, signature (4,20)")
def check_mukai_lattice():
    L = standard_lattice("LambdaTilde")
    M = mukai_sign_reversed()
    det_l, sig_l, sig_m = determinant(L), signature(L), signature(M)
    ok = (
        L.rank == 24
        and det_l == 1
        and sig_l == (4, 20, 0)
        and determinant(M) == 1
        and sig_m == (20, 4, 0)
        and M.is_even()
    )
    return ok, f"det={det_l} sig={sig_l} reversed sig={sig_m}"


def _mukai_embedding_vectors():
    f1 = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(24))
    f2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(24))
    return f1, f2


@_check("mukai-embedding-complement",
        "u1-v1, u2-v2 pair as diag(-2,-2); complement has det 4, signature (20,2), discriminant group (Z/2)^2")
def check_mukai_embedding_complement():
    M = mukai_sign_reversed()
    f1, f2 = _mukai_embedding_vectors()
    if not (M.norm(f1) == -2 and M.norm(f2) == -2 and M.pairing(f1, f2) == 0):
        return False, "embedding vectors do not pair as diag(-2,-2)"
    K = Sublattice(M, (f1, f2))
    comp = orthogonal_complement(M, K)
    # the unimodular ambient glues the two pieces along a group of order 4
    ext = glue_extension_check(comp, K)
    dg = ext.disc_s
    G = dg.lattice
    det_g, sig_g = determinant(G), signature(G)
    ok = (
        comp.rank == 22
        and det_g == 4
        and G.is_even()
        and sig_g == (20, 2, 0)
        and dg.invariant_factors == (2, 2)
        and ext.glue_order == 4
        and ext.disc_order_ambient == 1
        and ext.quotient_identity_holds
        and ext.det_law_holds
    )
    return ok, (
        f"complement rank={comp.rank} det={det_g} sig={sig_g} "
        f"d(L)={dg.group_name()}; glue |H|={ext.glue_order}, ambient d trivial"
    )


def _det_failure(gram, formula, label):
    """None when the Gram has determinant formula, else label with the determinant."""
    det = intmat.bareiss_det(gram)
    return None if det == formula else f"{label}: det={det}"


def normal_form_failure(k: int):
    """None when the three labelling normal forms at k have det 2+8k, 2+8k, 4+8k."""
    return (
        _det_failure(((-2, 0, 1), (0, -2, 0), (1, 0, 2 * k)), 2 + 8 * k, f"first form k={k}")
        or _det_failure(((-2, 0, 0), (0, -2, 1), (0, 1, 2 * k)), 2 + 8 * k, f"second form k={k}")
        or _det_failure(((-2, 0, 1), (0, -2, 1), (1, 1, 2 * k)), 4 + 8 * k, f"third form k={k}")
    )


def isotropic_det_failure(x: int, y: int):
    """None when det(-2,0,x|0,-2,y|x,y,0) = 2x^2 + 2y^2."""
    gram = ((-2, 0, x), (0, -2, y), (x, y, 0))
    return _det_failure(gram, 2 * x * x + 2 * y * y, f"(x,y)=({x},{y})")


def hilb2_det_failure(n: int):
    """None when det(-2,0,1|0,-2,n|1,n,0) = 2n^2 + 2."""
    return _det_failure(((-2, 0, 1), (0, -2, n), (1, n, 0)), 2 * n * n + 2, f"n={n}")


@_check("normal-form-determinants",
        "det(-2,0,1|0,-2,0|1,0,2k) = 2+8k and det(-2,0,1|0,-2,1|1,1,2k) = 4+8k")
def check_normal_form_determinants():
    return _sweep(map(normal_form_failure, range(2)), "all integers: degree 1 in k, grid k in {0, 1}")


@_check("isotropic-labelling-det", "det(-2,0,x|0,-2,y|x,y,0) = 2x^2 + 2y^2")
def check_isotropic_labelling_det():
    pairs = product(range(3), repeat=2)
    return _sweep(starmap(isotropic_det_failure, pairs), "all integers: degree 2 in x and y, grid {0, 1, 2}^2")


@_check("hilb2-labelling-det", "det(-2,0,1|0,-2,n|1,n,0) = 2n^2 + 2")
def check_hilb2_shape_det():
    return _sweep(map(hilb2_det_failure, range(3)), "all integers: degree 2 in n, grid n in {0, 1, 2}")


@_check("discriminant-form-classes",
        "d(diag(-2,-2)) = (Z/2)^2 with q = (3/2, 3/2); d(<2>) = Z/2 with q = 1/2")
def check_disc_group_classes():
    dg = discriminant_group(GramLattice(((-2, 0), (0, -2))))
    if dg.invariant_factors != (2, 2) or set(dg.qvalues) != {Fraction(3, 2)}:
        return False, f"diag(-2,-2): {dg.group_name()} q={dg.qvalues}"
    dg2 = discriminant_group(GramLattice(((2,),)))
    if dg2.invariant_factors != (2,) or dg2.qvalues != (Fraction(1, 2),):
        return False, f"<2>: {dg2.group_name()} q={dg2.qvalues}"
    if not discriminant_group(standard_lattice("U")).is_trivial():
        return False, "U should have trivial discriminant group"
    return True, "diag(-2,-2) -> (Z/2)^2 with q=(3/2,3/2); <2> -> Z/2 with q=1/2"


@_check("glue-isotropy-cases",
        "q((1,1,1)) = 1/2 + 1/2 - 1/2 != 0: only two of three order-2 glue candidates are isotropic")
def check_glue_case_analysis():
    # q-values (1/2, 1/2) on d(S), -1/2 on d(K): of the three candidate
    # order-2 glue groups only (1,0,1) and (0,1,1) are isotropic.
    S = GramLattice(((2, 0), (0, 2)))
    K = GramLattice(((-2,),))
    half = Fraction(1, 2)
    cands = {
        "(1,0,1)": ((half, 0), (half,)),
        "(0,1,1)": ((0, half), (half,)),
        "(1,1,1)": ((half, half), (half,)),
    }
    iso = {
        name: check_isotropic(GlueData(S, K, (pair,))) for name, pair in cands.items()
    }
    if iso != {"(1,0,1)": True, "(0,1,1)": True, "(1,1,1)": False}:
        return False, f"isotropy table {iso}"
    # a concrete model: L = U + <2>, K = <h> with h.h = -2, S = K-perp;
    # the actual glue group is isotropic and satisfies |H-perp/H| = |d(L)|.
    L = direct_sum(standard_lattice("U"), GramLattice(((2,),)))
    Ksub = Sublattice(L, ((1, -1, 0),))
    Ssub = orthogonal_complement(L, Ksub)
    rep = glue_extension_check(Ssub, Ksub)
    ok = rep.isotropic and rep.quotient_identity_holds and rep.glue_order == 2
    return ok, f"isotropy {iso}; model |H|={rep.glue_order} identity={rep.quotient_identity_holds}"


@_check("glue-hyperbolic-plane",
        "<2> + <-2> glued along the diagonal is U; det = det(S) det(K) / |H|^2")
def check_glue_u():
    half = Fraction(1, 2)
    out = glue(GlueData(GramLattice(((2,),)), GramLattice(((-2,),)), (((half,), (half,)),)))
    det = determinant(out)
    # an even rank-2 lattice of det -1 is U, certified by the plane's basis T:
    # T is unimodular and T^t G T = U, both recomputed here
    T = find_hyperbolic_plane(out, 1) if out.rank == 2 and out.is_even() else None
    ok = (
        det == (2 * -2) // 4
        and T is not None
        and abs(intmat.bareiss_det(T)) == 1
        and [[out.pairing(u, v) for v in T] for u in T] == [[0, 1], [1, 0]]
    )
    return ok, f"glued gram {out.gram}, det {det}, T = {T}"


def d50_failure(star2, star2_twisted, star3):
    """None when the flags of d = 50 hold: star2 and star2' true, P_25(-1) unsolvable."""
    ok = star2 is True and star2_twisted is True and star3 is None
    return None if ok else "star2 true, star2' true, P_25(-1) unsolvable"


@_check("d50-separates-conditions", "d = 50 satisfies the K3 condition but P_25(-1) is unsolvable")
def check_d50():
    rep = classify(50, with_witnesses=False)
    detail = d50_failure(rep.star2, rep.star2_twisted, rep.star3)
    return detail is None, "star2 true, star2' true, P_25(-1) unsolvable"


@_check("hilbert-square-pell", "a^2 d = 2n^2 + 2 iff n^2 - (d/2) a^2 = -1")
def check_star3_pell_identity():
    for d in (2, 4, 10, 20, 26, 34):
        sol = negative_pell(d // 2)
        if sol is None:
            return False, f"d={d} unexpectedly unsolvable"
        n, a = sol.as_pair()
        if a * a * d != 2 * n * n + 2 or n * n - (d // 2) * a * a != -1:
            return False, f"d={d} (n,a)=({n},{a})"
    return True, "a^2 d = 2n^2+2 and n^2 - (d/2)a^2 = -1 on d in {2,4,10,20,26,34}"


def q_identity_failure(k: int, l: int, m: int, n: int, x: int, y: int):
    """None when Q(x, y) is the det of the labelling by x tau1 + y tau2 and
    A = 2k^2+2l^2, B = 8+4km+4ln, C = 2m^2+2n^2."""
    qa = qform_rank4(k, l, m, n)
    p, r = k * x + m * y, l * x + n * y
    gram = ((-2, 0, p), (0, -2, r), (p, r, 2 * x * y))
    abc = (2 * k * k + 2 * l * l, 8 + 4 * k * m + 4 * l * n, 2 * m * m + 2 * n * n)
    if (qa.A, qa.B, qa.C) != abc:
        return f"{(k, l, m, n)}: coefficient formulas"
    return _det_failure(gram, qa.Q(x, y), f"(k,l,m,n,x,y)=({k},{l},{m},{n},{x},{y})")


@_check("rank4-q-identity",
        "Q(x,y) = 8xy + 2(kx+my)^2 + 2(lx+ny)^2; A = 2k^2+2l^2, B = 8+4km+4ln, C = 2m^2+2n^2")
def check_q_rank4_identity():
    draws = (klmn + (1, -1) for klmn in product(range(3), repeat=4))
    return _sweep(starmap(q_identity_failure, draws), "all integers: degree 2 in k, l, m, n, grid {0, 1, 2}^4")


def lemma_failure(k: int, l: int, m: int, n: int):
    """None when the content lemma holds at (k, l, m, n); a positive-definite
    q with an odd pairing must represent a prime 1 (mod 4)."""
    qa = qform_rank4(k, l, m, n)
    rep = lemma_checks(qa)
    if not rep.conclusions_hold() or (rep.all_even and qa.h % 8):
        return f"{(k, l, m, n)}: residue conclusions fail"
    if rep.all_even or not qa.q.is_positive_definite():
        return None
    p, x, y = rep.prime if rep.prime_status == "found" else (0, 0, 0)
    if p % 4 != 1 or qa.q(x, y) != p:
        return f"{(k, l, m, n)}: prime search {rep.prime_status} {rep.prime}"
    return None


@_check("content-lemma-suite",
        "odd primes dividing h are 1 (mod 4); 8 | h iff all pairings even; a, c != 3 (mod 4), b even; q represents a prime 1 (mod 4)")
def check_lemma_suite_instances():
    qa = qform_rank4(2, 1, -1, 1)
    if not (qa.h == 2 and qa.q == BinaryForm(5, 2, 2)):
        return False, f"(2,1,-1,1): h={qa.h} q={qa.q}"
    rep = lemma_checks(qa)
    if rep.prime_status != "found" or rep.prime[0] != 5:
        return False, f"(2,1,-1,1): prime search {rep.prime_status} {rep.prime}"
    probes = ((2, 1, -1, 1), (2, 2, 2, 2), (1, 0, 0, 1), (3, 1, 1, 0), (0, 1, 2, 1))
    return _sweep(starmap(lemma_failure, probes), "h, residues and represented prime on probe instances")


def family_failure(n: int):
    """None when the counterexample family at n passes: kappa1, kappa2 span U,
    discs are 0 (mod 8), and it represents 1 exactly for n <= 1."""
    rep = counterexample_family(n)
    if not (rep.kappa_checks and rep.all_discs_divisible_by_8):
        return f"n={n} family"
    if n == 2 and rep.reduced_form != BinaryForm(2, 1, 2):
        return f"n={n} family"
    one = rep.represents_one
    if not (one is not None) == rep.d8_member == (n <= 1) or (one and rep.form(*one) != 1):
        return f"n={n} family rep {one}"
    return None


@_check("counterexample-family",
        "kappa1, kappa2 span U; -Q/8 at n=2 reduces to 2x^2+xy+2y^2 with minimum 2; labelling discs are 0 (mod 8)")
def check_counterexample_family():
    r0, r1 = (counterexample_family(n).represents_one for n in (0, 1))
    if r0 != (0, 1) or r1 not in ((1, -1), (-1, 1)):
        return False, f"n=0, 1 family reps {r0}, {r1}"
    return _sweep(map(family_failure, (2, 0, 1)), "n in {0, 1, 2}: reduction, representing 1, discs mod 8")


@_check("counterexample-general",
        "N_(k,l,m,n) has even pairings, so every labelling disc is 0 (mod 8); N_(1,1,1,n) is the one-parameter family")
def check_counterexample_general():
    for klmn in ((2, 1, 0, 1), (1, 1, 0, 0), (1, 1, 1, 3), (3, 2, 1, 1)):
        rep = counterexample_general(*klmn)
        if not (
            rep.kappa_checks
            and rep.basis_change_matches
            and rep.pairings_even
            and rep.all_discs_divisible_by_8
        ):
            return False, f"{klmn}"
    fam = counterexample_family(3)
    gen = counterexample_general(1, 1, 1, 3)
    if fam.lattice.gram != gen.lattice.gram:
        return False, "N_(1,1,1,n) should equal the one-parameter family"
    return True, "kappa span, doubled-row basis change, discs 0 mod 8"


def hilb2_witness_failure(d: int):
    """None when admissible d has a Hilbert-square witness iff P_{d/2}(-1) has
    a solution (n, a), with the parities and identities of the anchor."""
    sol, wit = negative_pell(d // 2), hilb2_witness(d)
    if (sol is None) != (wit is None):
        return f"d={d}: witness iff P_(d/2)(-1) solvable"
    if sol is None:
        return None
    n, a = sol.as_pair()
    if d % 8 == 2 and n % 2 != 0:
        return f"d={d}: n odd"
    if d % 8 != 2 and (d % 8, n % 2, a % 4) != (4, 1, 1):
        return f"d={d}: parity of (n,a)=({n},{a})"
    L, w = wit
    if L.norm(w) != 0 or L.pairing((1, 0, 0), w) != 1 or not hilb2_criterion(L, w):
        return f"d={d}: witness identities"
    other = L.pairing((0, 1, 0), w)
    if not labelling_det(L, w) == 2 * other * other + 2 == a * a * d:
        return f"d={d}: labelling determinant"
    return None


@_check("hilbert-square-witness",
        "w = (a-1)/2 lambda1 + n/2 lambda2 + a tau: isotropic, unit pairing, labelling det 2n^2+2; n even iff d = 2 (mod 8), a = 1 (mod 4)")
def check_hilb2_witness_parity():
    ds = (d for d in range(2, 203, 2) if admissible(d)[0])
    return _sweep(map(hilb2_witness_failure, ds), "all Pell-solvable admissible d <= 202")


@_check("double-epw-isomorphism",
        "isomorphic to a double EPW sextic iff P_{d/2}(-1) solvable and P_{2d}(5) not")
def check_dm_values():
    p4 = [s.as_pair() for s in pell_general(4, 5)]
    p20 = [s.as_pair() for s in pell_general(20, 5)]
    p52 = [s.as_pair() for s in pell_general(52, 5)]
    dm = {d: classify(d, with_witnesses=False).dm_isomorphic for d in (2, 10, 26)}
    ok = (
        dm[2] is False
        and (3, 1) in p4
        and dm[10] is False
        and (5, 1) in p20
        and dm[26] is True
        and p52 == []
        and negative_pell(13).as_pair() == (18, 5)
    )
    return ok, f"P_4(5)={p4} P_20(5)={p20} P_52(5)={p52}"


def admissibility_failure(d: int):
    """None when d >= 1 is admissible exactly when d = 0, 2, 4 (mod 8)."""
    return None if admissible(d)[0] == (d % 8 in (0, 2, 4)) else f"d={d}"


@_check("admissible-discriminants",
        "admissible iff d > 0 and d = 0, 2, 4 (mod 8); D_d for 4 | d, a two-component divisor for d = 2 (mod 8)")
def check_admissibility():
    if admissible(10) != (True, "Dprime_union"):
        return False, "d=10"
    if admissible(12) != (True, "D_d"):
        return False, "d=12"
    if admissible(6) != (False, "inadmissible"):
        return False, "d=6"
    return _sweep(map(admissibility_failure, range(1, 200)), "labels for 10, 12, 6 and the mod-8 rule to 200")


def period_length(m: int) -> int:
    """Period of the continued fraction of sqrt(m), m not a square, by the
    textbook loop run until a_k = 2 a_0: no code shared with ``pell``."""
    a0 = isqrt(m)
    p, q, a, length = 0, 1, a0, 0
    while a != 2 * a0:
        p = a * q - p
        q = (m - p * p) // q
        a = (a0 + p) // q
        length += 1
    return length


def pell_parity_failure(m: int):
    """None when, for m >= 2, P_m(-1) is solvable exactly when m is not a
    square and the period of sqrt(m) is odd."""
    solvable = negative_pell(m) is not None
    if is_square(m):
        return f"m={m} should be unsolvable" if solvable else None
    if solvable != (period_length(m) % 2 == 1):
        return f"m={m}: period parity mismatch"
    return None


@_check("negative-pell-continued-fractions",
        "P_m(-1) solvable iff the period of sqrt(m) is odd; fundamentals for m = 1, 2, 5, 13")
def check_negative_pell_cf():
    expected = {1: (0, 1), 2: (1, 1), 5: (2, 1), 13: (18, 5)}
    for m, pair in expected.items():
        sol = negative_pell(m)
        if sol is None or sol.as_pair() != pair:
            return False, f"m={m}"
    return _sweep(map(pell_parity_failure, range(2, 120)), "fundamentals for m in {1,2,5,13}; parity rule to 120")


def check_list() -> list[tuple[str, str]]:
    return [(name, anchor) for name, anchor, _ in _CHECKS]


def run_checks() -> list[CheckResult]:
    out = []
    for name, anchor, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name=name, anchor=anchor, passed=ok, detail=detail))
    return out
