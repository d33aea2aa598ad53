"""Named verification checks behind the ``verify-paper`` command.

Each check recomputes one of the arithmetic identities the package is built
on, from scratch, and reports pass/fail with the identity as its anchor.
Check functions accept overrides for their inputs so a deliberately
corrupted object fails the matching check (fault injection).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from random import Random

from . import intmat
from .arith import is_square
from .discriminant import GlueData, check_isotropic, discriminant_group, glue, glue_extension_check
from .forms import BinaryForm
from .lattice import (
    GramLattice,
    Sublattice,
    determinant,
    direct_sum,
    is_isometric_small,
    mukai_sign_reversed,
    orthogonal_complement,
    signature,
    standard_lattice,
    twist,
)
from .oracle import (
    admissible,
    cond_star2,
    cond_star2_twisted,
    cond_star3,
    counterexample_family,
    counterexample_general,
    dm_isomorphism_check,
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


def check_vanishing_lattice(L: GramLattice | None = None):
    L = L or standard_lattice("Lambda")
    det, sig = determinant(L), signature(L)
    ok = L.rank == 22 and det == 4 and L.is_even() and sig == (20, 2, 0)
    return ok, f"rank={L.rank} det={det} sig={sig}"


def check_i20_twist():
    L = twist(standard_lattice("I(2,0)"), 2)
    ok = L.gram == ((2, 0), (0, 2))
    return ok, f"gram={L.gram}"


def check_mukai_lattice(L: GramLattice | None = None):
    L = L or standard_lattice("LambdaTilde")
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


def check_mukai_embedding_complement(M: GramLattice | None = None):
    M = M or mukai_sign_reversed()
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


def check_normal_form_determinants():
    for k in range(-2, 8):
        l1 = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2 * k)))
        if determinant(l1) != 2 + 8 * k:
            return False, f"first form k={k}: det={determinant(l1)}"
        l2 = GramLattice(((-2, 0, 0), (0, -2, 1), (0, 1, 2 * k)))
        if determinant(l2) != 2 + 8 * k:
            return False, f"second form k={k}: det={determinant(l2)}"
        l3 = GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 2 * k)))
        if determinant(l3) != 4 + 8 * k:
            return False, f"third form k={k}: det={determinant(l3)}"
    return True, "k in [-2, 7]"


def check_isotropic_labelling_det():
    rng = Random(20260810)
    for _ in range(50):
        x, y = rng.randint(-40, 40), rng.randint(-40, 40)
        L = GramLattice(((-2, 0, x), (0, -2, y), (x, y, 0)))
        if determinant(L) != 2 * x * x + 2 * y * y:
            return False, f"(x,y)=({x},{y})"
    return True, "50 random (x, y)"


def check_hilb2_shape_det():
    for n in range(-10, 11):
        L = GramLattice(((-2, 0, 1), (0, -2, n), (1, n, 0)))
        if determinant(L) != 2 * n * n + 2:
            return False, f"n={n}"
    return True, "n in [-10, 10]"


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


def check_glue_u():
    half = Fraction(1, 2)
    g = GlueData(
        GramLattice(((2,),)), GramLattice(((-2,),)), (((half,), (half,)),)
    )
    out = glue(g)
    det_ok = determinant(out) == (2 * -2) // 4
    iso = is_isometric_small(out, standard_lattice("U"))
    return bool(iso) and det_ok, f"glued gram {out.gram}, det {determinant(out)}, {iso.status}"


def check_d50():
    s3 = cond_star3(50)
    ok = cond_star2(50) and cond_star2_twisted(50) and s3 is None
    return ok, "star2 true, star2' true, P_25(-1) unsolvable"


def check_star3_pell_identity():
    for d in (2, 4, 10, 20, 26, 34):
        sol = cond_star3(d)
        if sol is None:
            return False, f"d={d} unexpectedly unsolvable"
        n, a = sol.as_pair()
        if a * a * d != 2 * n * n + 2 or n * n - (d // 2) * a * a != -1:
            return False, f"d={d} (n,a)=({n},{a})"
    return True, "a^2 d = 2n^2+2 and n^2 - (d/2)a^2 = -1 on d in {2,4,10,20,26,34}"


def check_q_rank4_identity():
    rng = Random(4242)
    for _ in range(200):
        k, l, m, n = (rng.randint(-50, 50) for _ in range(4))
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        qa = qform_rank4(k, l, m, n)
        p, r = k * x + m * y, l * x + n * y
        direct = intmat.bareiss_det(((-2, 0, p), (0, -2, r), (p, r, 2 * x * y)))
        if qa.Q(x, y) != direct:
            return False, f"(k,l,m,n,x,y)=({k},{l},{m},{n},{x},{y})"
        if (qa.A, qa.B, qa.C) != (
            2 * k * k + 2 * l * l,
            8 + 4 * k * m + 4 * l * n,
            2 * m * m + 2 * n * n,
        ):
            return False, "coefficient formulas"
    return True, "200 random instances"


def check_lemma_suite_instances():
    qa = qform_rank4(2, 1, -1, 1)
    rep = lemma_checks(qa)
    if not (qa.h == 2 and qa.q == BinaryForm(5, 2, 2) and rep.conclusions_hold()):
        return False, f"(2,1,-1,1): h={qa.h} q={qa.q}"
    if rep.prime_status != "found" or rep.prime[0] != 5:
        return False, f"(2,1,-1,1): prime search {rep.prime_status} {rep.prime}"
    all_even = lemma_checks(qform_rank4(2, 2, 2, 2))
    if not all_even.all_even or all_even.h % 8 != 0:
        return False, "(2,2,2,2) should hit 8 | h"
    for probe in ((1, 0, 0, 1), (3, 1, 1, 0), (0, 1, 2, 1)):
        qa2 = qform_rank4(*probe)
        rep2 = lemma_checks(qa2)
        if not rep2.conclusions_hold():
            return False, f"{probe}: residue conclusions fail"
    return True, "h, residues and represented prime on probe instances"


def check_counterexample_family():
    r2 = counterexample_family(2)
    if not (
        r2.kappa_checks
        and r2.reduced_form == BinaryForm(2, 1, 2)
        and r2.represents_one is None
        and r2.all_discs_divisible_by_8
        and not r2.d8_member
    ):
        return False, "n=2 family"
    r0 = counterexample_family(0)
    r1 = counterexample_family(1)
    if not (r0.d8_member and r0.represents_one == (0, 1)):
        return False, f"n=0 family rep {r0.represents_one}"
    if not (r1.d8_member and r1.represents_one in ((1, -1), (-1, 1))):
        return False, f"n=1 family rep {r1.represents_one}"
    return True, "n in {0, 1, 2}: reduction, representing 1, discs mod 8"


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


def check_hilb2_witness_parity():
    for d in range(2, 203, 2):
        if not admissible(d)[0]:
            continue
        sol = cond_star3(d)
        if sol is None:
            continue
        n, a = sol.as_pair()
        if d % 8 == 2 and n % 2 != 0:
            return False, f"d={d}: n odd"
        if d % 8 == 4 and (n % 2 != 1 or a % 4 != 1):
            return False, f"d={d}: parity of (n,a)=({n},{a})"
        L, w = hilb2_witness(d)
        if L.norm(w) != 0 or L.pairing((1, 0, 0), w) != 1:
            return False, f"d={d}: witness identities"
        other = L.pairing((0, 1, 0), w)
        if labelling_det(L, w) != 2 * other * other + 2:
            return False, f"d={d}: labelling determinant"
    return True, "all Pell-solvable admissible d <= 202"


def check_dm_values():
    p4 = [s.as_pair() for s in pell_general(4, 5)]
    p20 = [s.as_pair() for s in pell_general(20, 5)]
    p52 = [s.as_pair() for s in pell_general(52, 5)]
    ok = (
        dm_isomorphism_check(2) is False
        and (3, 1) in p4
        and dm_isomorphism_check(10) is False
        and (5, 1) in p20
        and dm_isomorphism_check(26) is True
        and p52 == []
        and negative_pell(13).as_pair() == (18, 5)
    )
    return ok, f"P_4(5)={p4} P_20(5)={p20} P_52(5)={p52}"


def check_admissibility():
    if admissible(10) != (True, "Dprime_union"):
        return False, "d=10"
    if admissible(12) != (True, "D_d"):
        return False, "d=12"
    if admissible(6) != (False, "inadmissible"):
        return False, "d=6"
    for d in range(1, 200):
        if admissible(d)[0] != (d % 8 in (0, 2, 4)):
            return False, f"d={d}"
    return True, "labels for 10, 12, 6 and the mod-8 rule to 200"


def _period_length(m: int) -> int:
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


def check_negative_pell_cf():
    expected = {1: (0, 1), 2: (1, 1), 5: (2, 1), 13: (18, 5)}
    for m, pair in expected.items():
        sol = negative_pell(m)
        if sol is None or sol.as_pair() != pair:
            return False, f"m={m}"
    if negative_pell(25) is not None:
        return False, "m=25 should be unsolvable"
    for m in range(2, 120):
        if is_square(m):
            continue
        odd = _period_length(m) % 2 == 1
        if (negative_pell(m) is not None) != odd:
            return False, f"m={m}: period parity mismatch"
    return True, "fundamentals for m in {1,2,5,13}; parity rule to 120"


_CHECKS = (
    (
        "vanishing-lattice",
        "Lambda = E8^2 + U^2 + I(2,0)(2): rank 22, det 4, even, signature (20,2)",
        check_vanishing_lattice,
    ),
    ("i20-twist", "I(2,0) twisted by 2 is diag(2,2)", check_i20_twist),
    (
        "mukai-lattice",
        "LambdaTilde = U^4 + E8(-1)^2: rank 24, unimodular, signature (4,20)",
        check_mukai_lattice,
    ),
    (
        "mukai-embedding-complement",
        "u1-v1, u2-v2 pair as diag(-2,-2); complement has det 4, signature (20,2), discriminant group (Z/2)^2",
        check_mukai_embedding_complement,
    ),
    (
        "normal-form-determinants",
        "det(-2,0,1|0,-2,0|1,0,2k) = 2+8k and det(-2,0,1|0,-2,1|1,1,2k) = 4+8k",
        check_normal_form_determinants,
    ),
    (
        "isotropic-labelling-det",
        "det(-2,0,x|0,-2,y|x,y,0) = 2x^2 + 2y^2",
        check_isotropic_labelling_det,
    ),
    (
        "hilb2-labelling-det",
        "det(-2,0,1|0,-2,n|1,n,0) = 2n^2 + 2",
        check_hilb2_shape_det,
    ),
    (
        "discriminant-form-classes",
        "d(diag(-2,-2)) = (Z/2)^2 with q = (3/2, 3/2); d(<2>) = Z/2 with q = 1/2",
        check_disc_group_classes,
    ),
    (
        "glue-isotropy-cases",
        "q((1,1,1)) = 1/2 + 1/2 - 1/2 != 0: only two of three order-2 glue candidates are isotropic",
        check_glue_case_analysis,
    ),
    (
        "glue-hyperbolic-plane",
        "<2> + <-2> glued along the diagonal is U; det = det(S) det(K) / |H|^2",
        check_glue_u,
    ),
    (
        "d50-separates-conditions",
        "d = 50 satisfies the K3 condition but P_25(-1) is unsolvable",
        check_d50,
    ),
    (
        "hilbert-square-pell",
        "a^2 d = 2n^2 + 2 iff n^2 - (d/2) a^2 = -1",
        check_star3_pell_identity,
    ),
    (
        "rank4-q-identity",
        "Q(x,y) = 8xy + 2(kx+my)^2 + 2(lx+ny)^2; A = 2k^2+2l^2, B = 8+4km+4ln, C = 2m^2+2n^2",
        check_q_rank4_identity,
    ),
    (
        "content-lemma-suite",
        "odd primes dividing h are 1 (mod 4); 8 | h iff all pairings even; a, c != 3 (mod 4), b even; q represents a prime 1 (mod 4)",
        check_lemma_suite_instances,
    ),
    (
        "counterexample-family",
        "kappa1, kappa2 span U; -Q/8 at n=2 reduces to 2x^2+xy+2y^2 with minimum 2; labelling discs are 0 (mod 8)",
        check_counterexample_family,
    ),
    (
        "counterexample-general",
        "N_(k,l,m,n) has even pairings, so every labelling disc is 0 (mod 8); N_(1,1,1,n) is the one-parameter family",
        check_counterexample_general,
    ),
    (
        "hilbert-square-witness",
        "w = (a-1)/2 lambda1 + n/2 lambda2 + a tau: isotropic, unit pairing, labelling det 2n^2+2; n even iff d = 2 (mod 8), a = 1 (mod 4)",
        check_hilb2_witness_parity,
    ),
    (
        "double-epw-isomorphism",
        "isomorphic to a double EPW sextic iff P_{d/2}(-1) solvable and P_{2d}(5) not",
        check_dm_values,
    ),
    (
        "admissible-discriminants",
        "admissible iff d > 0 and d = 0, 2, 4 (mod 8); D_d for 4 | d, a two-component divisor for d = 2 (mod 8)",
        check_admissibility,
    ),
    (
        "negative-pell-continued-fractions",
        "P_m(-1) solvable iff the period of sqrt(m) is odd; fundamentals for m = 1, 2, 5, 13",
        check_negative_pell_cf,
    ),
)


def check_list() -> list[tuple[str, str]]:
    return [(name, anchor) for name, anchor, _ in _CHECKS]


def run_checks(names=None) -> list[CheckResult]:
    out = []
    for name, anchor, fn in _CHECKS:
        if names is not None and name not in names:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name=name, anchor=anchor, passed=ok, detail=detail))
    return out
