"""Decision procedures and witnesses for discriminants."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from math import gcd
from pathlib import Path
from random import Random

import pytest

from gmlattice import (
    D_MAX,
    BinaryForm,
    DivisorReport,
    DomainError,
    GramLattice,
    LatticeError,
    Sublattice,
    admissible,
    classify,
    counterexample_family,
    counterexample_general,
    determinant,
    find_hyperbolic_plane,
    find_prime_1mod4,
    hilb2_criterion,
    hilb2_witness,
    hyperbolic_partner,
    k3_witness,
    labelling_lattice,
    labelling_normal_form,
    lemma_checks,
    orthogonal_complement,
    qform_rank4,
    twist,
    twisted_witness,
)
from gmlattice.arith import factored_sum_of_two_squares, factorize, prime_powers, two_square_decompositions
from gmlattice.oracle import K3_RANK4_BOX, labelling_det
from gmlattice.pell import _OMEGA_MIN, _half_period, _least_unit, negative_pell, pell_solvable
from gmlattice import cli, intmat, oracle


def flags(d):
    return classify(d, with_witnesses=False)


# ---------------------------------------------------------------------------
# admissibility and conditions


def test_admissible_examples():
    assert admissible(10) == (True, "Dprime_union")
    assert admissible(12) == (True, "D_d")
    assert admissible(6) == (False, "inadmissible")
    assert admissible(0) == (False, "inadmissible")
    assert admissible(-8) == (False, "inadmissible")


def test_cond_star2_examples():
    assert flags(50).star2 is True
    assert flags(12).star2 is False  # prime 3
    assert flags(16).star2 is False  # 8 | 16
    assert flags(2).star2 and flags(4).star2 and flags(10).star2
    assert flags(0).star2 is False


def test_cond_star2_twisted_examples():
    assert flags(16).star2_twisted is True
    assert flags(12).star2_twisted is False
    assert flags(50).star2_twisted is True
    assert flags(18).star2_twisted is True  # 3^2
    assert flags(-4).star2_twisted is False


def test_cond_star3_examples():
    assert flags(2).star3.as_pair() == (0, 1)
    assert flags(10).star3.as_pair() == (2, 1)
    assert flags(50).star3 is None
    assert flags(5).star3 is None  # odd d


def test_twisted_witness_examples():
    assert twisted_witness(16) == (2, 2, 1)
    assert twisted_witness(10) == (1, 2, 1)
    assert twisted_witness(12) is None
    x, y, i = twisted_witness(50)
    assert 2 * x * x + 2 * y * y == i * i * 50
    for d in range(1, 5001):
        if flags(d).star2_twisted:
            x, y, i = twisted_witness(d)
            assert i == (1 if d % 2 == 0 else 2)
            assert 2 * x * x + 2 * y * y == i * i * d


def test_size_limit_is_refused_at_once():
    for check in (classify, twisted_witness, hilb2_witness, labelling_lattice):
        with pytest.raises(DomainError, match="D_MAX"):
            check(D_MAX + 2)
    assert flags(D_MAX).star2 is False  # the limit itself is accepted


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_examples():
    T, std = labelling_normal_form(GramLattice(((-2, 0, 3), (0, -2, 2), (3, 2, 4))))
    assert std.gram == ((-2, 0, 1), (0, -2, 0), (1, 0, 10))
    assert determinant(std) == 42 == 2 + 8 * 5

    T2, std2 = labelling_normal_form(GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 0))))
    assert std2.gram == ((-2, 0, 1), (0, -2, 0), (1, 0, 0))

    T3, std3 = labelling_normal_form(GramLattice(((-2, 0, 1), (0, -2, 1), (1, 1, 0))))
    assert std3.gram == ((-2, 0, 1), (0, -2, 1), (1, 1, 0))


def test_normal_form_random_preserves_det_and_shape():
    rng = Random(51)
    done = 0
    while done < 120:
        a = rng.randint(-15, 15)
        b = rng.randint(-15, 15)
        c = 2 * rng.randint(-10, 10)
        G = GramLattice(((-2, 0, a), (0, -2, b), (a, b, c)))
        d = determinant(G)
        if d % 8 == 0:
            with pytest.raises(LatticeError, match="normal form defined for discriminant 2 or 4"):
                labelling_normal_form(G)
            continue
        T, std = labelling_normal_form(G)
        assert determinant(std) == d
        assert abs(intmat.bareiss_det(T)) == 1
        got = intmat.mat_mul(intmat.mat_mul(intmat.transpose(T), G.gram), T)
        assert got == std.gram
        if d % 8 == 2:
            assert std.gram in (
                ((-2, 0, 1), (0, -2, 0), (1, 0, std.gram[2][2])),
                ((-2, 0, 0), (0, -2, 1), (0, 1, std.gram[2][2])),
            )
            assert determinant(std) == 2 + 8 * (std.gram[2][2] // 2)
        else:
            assert std.gram == ((-2, 0, 1), (0, -2, 1), (1, 1, std.gram[2][2]))
        done += 1


def test_normal_form_rejects_wrong_shape():
    with pytest.raises(LatticeError, match=r"must pair as diag\(-2,-2\)"):
        labelling_normal_form(GramLattice(((-2, 1, 0), (1, -2, 0), (0, 0, 2))))
    with pytest.raises(LatticeError, match="labelling lattice must be even"):
        labelling_normal_form(GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 3))))
    with pytest.raises(LatticeError, match="rank 3 labelling lattice"):
        labelling_normal_form(GramLattice(((-2, 0), (0, -2))))


def test_labelling_lattice_dets():
    for d in (2, 10, 26, 50, 4, 12, 20):
        assert determinant(labelling_lattice(d)) == d
    with pytest.raises(DomainError, match="normal form defined for d = 2 or 4"):
        labelling_lattice(16)


# ---------------------------------------------------------------------------
# Hilbert-square witnesses


def test_hilb2_witness_d2():
    L, w = hilb2_witness(2)
    assert L.gram == ((-2, 0, 1), (0, -2, 0), (1, 0, 0))
    assert w == (0, 0, 1)
    assert L.pairing((1, 0, 0), w) == 1 and L.norm(w) == 0


def test_hilb2_witness_d10():
    L, w = hilb2_witness(10)
    assert L.gram == ((-2, 0, 1), (0, -2, 0), (1, 0, 2))
    assert w == (0, 1, 1)
    assert L.pairing((1, 0, 0), w) == 1
    assert L.norm(w) == 0


def test_hilb2_witness_d50_none():
    assert hilb2_witness(50) is None


def test_hilb2_witness_inadmissible():
    with pytest.raises(DomainError):
        hilb2_witness(6)


def test_hilb2_witness_d4_and_d20():
    for d in (4, 20, 52):
        L, w = hilb2_witness(d)
        assert L.norm(w) == 0
        assert L.pairing((1, 0, 0), w) == 1
        assert hilb2_criterion(L, w)
        other = L.pairing((0, 1, 0), w)
        assert labelling_det(L, w) == 2 * other * other + 2


def test_hilb2_criterion_rejects_lambda1():
    L = labelling_lattice(10)
    assert hilb2_criterion(L, (1, 0, 0)) is False


def test_hilb2_criterion_generic_det_identity():
    # shape ((-2,0,1),(0,-2,n),(1,n,0)): det = 2n^2+2
    for n in range(-6, 7):
        L = GramLattice(((-2, 0, 1), (0, -2, n), (1, n, 0)))
        w = (0, 0, 1)
        assert hilb2_criterion(L, w) is True
        assert labelling_det(L, w) == 2 * n * n + 2


def test_hilb2_criterion_swapped_embedding():
    # witness with lambda2-pairing 1 instead: hilb2_criterion sees it once
    # lambda1 and lambda2 are swapped in the Gram (and in w)
    L = GramLattice(((-2, 0, 0), (0, -2, 1), (0, 1, 2)))
    w = (1, 0, 1)  # w.w = -2 + 2 = 0, lambda2.w = 1, lambda1.w = -2
    assert L.norm(w) == 0
    swapped = GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2)))
    assert swapped.norm((0, 1, 1)) == 0
    assert hilb2_criterion(swapped, (0, 1, 1)) is True
    assert hilb2_criterion(L, w) is False


# ---------------------------------------------------------------------------
# the rank-4 form analysis


def test_qform_examples():
    qa = qform_rank4(2, 1, -1, 1)
    assert (qa.A, qa.B, qa.C, qa.h) == (10, 4, 4, 2)
    assert qa.q == BinaryForm(5, 2, 2)
    qa0 = qform_rank4(0, 0, 0, 0)
    assert (qa0.A, qa0.B, qa0.C, qa0.h) == (0, 8, 0, 8)
    assert qa0.q == BinaryForm(0, 1, 0)
    assert not qa0.is_positive_definite()


def test_qform_identity_random():
    rng = Random(52)
    for _ in range(300):
        k, l, m, n = (rng.randint(-50, 50) for _ in range(4))
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        qa = qform_rank4(k, l, m, n)
        p, r = k * x + m * y, l * x + n * y
        direct = intmat.bareiss_det(((-2, 0, p), (0, -2, r), (p, r, 2 * x * y)))
        assert qa.Q(x, y) == direct


def test_lemma_checks_examples():
    rep = lemma_checks(qform_rank4(2, 1, -1, 1))
    assert rep.h == 2
    assert rep.h_odd_primes_1mod4 and rep.h_not_div_8
    assert rep.a_not_3mod4 and rep.c_not_3mod4 and rep.b_even
    assert rep.prime_status == "found" and rep.prime == (5, 1, 0)
    assert rep.conclusions_hold()

    rep2 = lemma_checks(qform_rank4(1, 0, 0, 1))
    assert rep2.prime_status == "not-positive-definite"

    rep3 = lemma_checks(qform_rank4(2, 2, 2, 2))
    assert rep3.all_even
    assert rep3.h_not_div_8 is None and rep3.b_even is None
    assert rep3.prime_status == "hypothesis-not-met"
    assert rep3.h % 8 == 0


def test_lemma_conclusions_random_not_all_even():
    rng = Random(53)
    done = 0
    while done < 200:
        klmn = [rng.randint(-50, 50) for _ in range(4)]
        if all(v % 2 == 0 for v in klmn):
            continue
        qa = qform_rank4(*klmn)
        rep = lemma_checks(qa)
        assert rep.h_odd_primes_1mod4
        assert rep.h_not_div_8
        assert rep.a_not_3mod4 and rep.c_not_3mod4 and rep.b_even
        if qa.is_positive_definite():
            assert rep.prime_status == "found" and qa.q(*rep.prime[1:]) == rep.prime[0]
        done += 1


# ---------------------------------------------------------------------------
# K3 witnesses


def test_k3_witness_rank3_found():
    L = labelling_lattice(10)
    rep = k3_witness(L)
    assert rep.status == "found"
    v, w = rep.u_basis
    assert L.norm(v) == 0 and L.norm(w) == 0 and L.pairing(v, w) == 1
    assert rep.gen_norm == -10
    assert L.norm(rep.complement_gen) == -10


def test_k3_witness_rank3_proven_absent():
    rep = k3_witness(labelling_lattice(12))
    assert rep.status == "proven-absent"
    assert not rep.found()


def test_k3_witness_rank4():
    qa = qform_rank4(2, 1, -1, 1)
    L = GramLattice(qa.rank4_gram())
    rep = k3_witness(L)
    assert rep.status == "found"
    x, y = rep.xy
    assert rep.disc_raw == qa.Q(x, y)
    assert Sublattice(L, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, x, y))).is_primitive()
    assert flags(rep.disc_raw).star2
    # the contract's probe point: (1, 0) labels with discriminant 10
    assert qa.Q(1, 0) == 10 and flags(10).star2


def test_k3_witness_rank3_large_det_is_answered_or_refused_at_once():
    # 8 | d and d <= 0 are proven absent from d alone, however large; any
    # other d past D_MAX is refused before its d/2 is factored
    start = time.perf_counter()
    assert k3_witness(GramLattice(((-2, 0, 0), (0, -2, 0), (0, 0, 2 * 10**16)))).status == "proven-absent"
    assert k3_witness(GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, -2 * 10**16)))).status == "proven-absent"
    assert time.perf_counter() - start < 1
    k = D_MAX // 8 + 1
    with pytest.raises(LatticeError, match=f"D_MAX = {D_MAX}"):
        k3_witness(GramLattice(((-2, 0, 1), (0, -2, 0), (1, 0, 2 * k))))
    rep = k3_witness(labelling_lattice(D_MAX - 6))  # the largest d = 2 (mod 8) accepted
    assert rep.found() and rep.gen_norm == 6 - D_MAX


def test_k3_witness_rank2_unsupported():
    with pytest.raises(LatticeError, match="K3 witness search supports rank 3 and 4 lattices"):
        k3_witness(GramLattice(((-2, 0), (0, -2))))


def test_k3_witness_flipped_family_never_finds_k3():
    # the counterexample family in the +2 convention: U is present but no
    # labelling ever satisfies the K3 condition (all discs are 0 mod 8)
    fam = counterexample_family(3)
    B = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 3, 0, 1))
    doubled = intmat.mat_mul(intmat.mat_mul(B, fam.lattice.gram), intmat.transpose(B))
    rep = k3_witness(twist(GramLattice(doubled), -1))
    assert rep.status == "proven-absent"
    assert not rep.found() and rep.xy is None
    assert rep.qform.h % 8 == 0
    assert lemma_checks(rep.qform).all_even


def test_labelling_input_validation():
    bad_grams = (
        ((-2, 0, 1), (0, 2, 0), (1, 0, 2)),  # lambda2.lambda2 = 2
        ((-8, 0, 1), (0, -2, 0), (1, 0, 2)),  # lambda1.lambda1 = -8
        ((-2, 1, 0), (1, -2, 0), (0, 0, 2)),  # lambda1.lambda2 = 1
        ((-2, 0, 1), (0, -2, 0), (1, 0, 3)),  # odd lattice
    )
    for gram in bad_grams:
        L = GramLattice(gram)
        for call in (lambda: k3_witness(L), lambda: hilb2_criterion(L, (0, 0, 1))):
            with pytest.raises(LatticeError) as info:
                call()
            assert "rank" not in str(info.value), gram
    with pytest.raises(LatticeError):
        hilb2_criterion(GramLattice(((-8, 0), (0, -2))), (0, 1))
    for gram in (((-2,),), tuple(tuple(-2 * (i == j) for j in range(5)) for i in range(5))):
        L = GramLattice(gram)
        with pytest.raises(LatticeError, match="labelling lattice rank must be between 2 and 4"):
            k3_witness(L)
        with pytest.raises(LatticeError, match="labelling lattice rank must be between 2 and 4"):
            hilb2_criterion(L, (0,) * L.rank)
    # the square +2 convention is accepted once twisted by -1
    plus2 = twist(GramLattice(((2, 0), (0, 2))), -1)
    assert plus2.gram == ((-2, 0), (0, -2))
    assert hilb2_criterion(plus2, (1, 0)) is False
    with pytest.raises(LatticeError):
        hilb2_criterion(GramLattice(((2, 0), (0, 2))), (1, 0))


# ---------------------------------------------------------------------------
# counterexamples


def test_counterexample_family_examples():
    r2 = counterexample_family(2)
    assert r2.kappa_checks
    assert r2.reduced_form == BinaryForm(2, 1, 2)
    assert r2.represents_one is None
    assert r2.all_discs_divisible_by_8
    assert r2.min_abs_disc == 16
    assert not r2.d8_member

    r0 = counterexample_family(0)
    assert r0.represents_one == (0, 1)
    assert r0.d8_member

    r1 = counterexample_family(1)
    assert r1.represents_one in ((1, -1), (-1, 1))
    assert r1.d8_member


def box_scan(G, lam1, lam2, t1, t2, bound):
    """Brute force over (a, b) in a box: the pairings of lambda1, lambda2
    and tau = a t1 + b t2, and the labelling discriminant, the det of the
    Gram of (lambda1, lambda2, tau)."""
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0):
                continue
            tau = tuple(a * x + b * y for x, y in zip(t1, t2))
            rows = (lam1, lam2, tau)
            gram = tuple(tuple(G.pairing(v, w) for w in rows) for v in rows)
            yield (gram[0][2], gram[1][2], gram[2][2]), intmat.bareiss_det(gram)


def test_counterexample_family_d8_rule():
    for n in range(0, 41):
        rep = counterexample_family(n)
        assert rep.d8_member == (n in (0, 1))
        assert rep.kappa_checks
        assert rep.all_discs_divisible_by_8
        discs = [
            disc
            for _, disc in box_scan(
                rep.lattice, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), 6
            )
        ]
        assert rep.min_abs_disc == min(abs(x) for x in discs), n
        assert rep.all_discs_divisible_by_8 == all(x % 8 == 0 for x in discs), n


def test_counterexample_family_reads_the_d8_flag_off_the_general_model(monkeypatch):
    real = oracle.counterexample_general
    monkeypatch.setattr(
        oracle,
        "counterexample_general",
        lambda *klmn: replace(real(*klmn), all_discs_divisible_by_8=False),
    )
    assert counterexample_family(3).all_discs_divisible_by_8 is False


def test_counterexample_general_examples():
    rep = counterexample_general(2, 1, 0, 1)
    assert rep.kappa_checks and rep.pairings_even and rep.all_discs_divisible_by_8
    rep2 = counterexample_general(1, 1, 0, 0)
    assert rep2.kappa_checks
    assert rep2.lattice.pairing(rep2.kappa1, rep2.kappa2) == 1
    fam = counterexample_family(4)
    gen = counterexample_general(1, 1, 1, 4)
    assert fam.lattice.gram == gen.lattice.gram


def test_counterexample_general_excluded_kl():
    with pytest.raises(DomainError, match=r"family excludes \(k, l\) = \(1,0\) and \(0,1\)"):
        counterexample_general(1, 0, 3, 2)
    with pytest.raises(DomainError, match=r"family excludes \(k, l\) = \(1,0\) and \(0,1\)"):
        counterexample_general(0, 1, 3, 2)


def test_counterexample_general_random_scan():
    rng = Random(54)
    done = 0
    while done < 200:
        k, l, m, n = (rng.randint(-6, 6) for _ in range(4))
        if (k, l) in ((1, 0), (0, 1)):
            continue
        rep = counterexample_general(k, l, m, n)
        assert rep.kappa_checks
        assert rep.basis_change_matches
        assert rep.pairings_even
        assert rep.all_discs_divisible_by_8
        scan = list(
            box_scan(rep.lattice, (1, 0, 0, 0), (0, 1, 0, 0), rep.kappa1, rep.kappa2, 6)
        )
        assert rep.pairings_even == all(x % 2 == 0 for p, _ in scan for x in p)
        assert rep.all_discs_divisible_by_8 == all(disc % 8 == 0 for _, disc in scan)
        done += 1


def test_k3_status_consistency_sweep():
    # the rank-3 witness is exact: found iff the K3 condition holds, and a
    # plane the box search finds is never missed by the exact construction
    for d in range(2, 4001):
        if d % 8 not in (2, 4):
            continue
        L = labelling_lattice(d)
        rep = k3_witness(L)
        assert rep.status == ("found" if flags(d).star2 else "proven-absent"), d
        if rep.found():
            assert rep.gen_norm == -d, d
        if d <= 800 and find_hyperbolic_plane(L, 20) is not None:
            assert rep.found(), d


def test_k3_witness_random_labelling_grams_vs_box_search():
    # labelling-shaped Grams off the normal form, including 8 | d and d <= 0
    rng = Random(2718)
    seen = set()
    for _ in range(150):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        c = 2 * rng.randint(-8, 8)
        L = GramLattice(((-2, 0, a), (0, -2, b), (a, b, c)))
        d = determinant(L)
        rep = k3_witness(L)
        expect = d > 0 and flags(d).star2
        assert rep.status == ("found" if expect else "proven-absent"), (a, b, c)
        if rep.found():
            v, w = rep.u_basis
            assert (L.norm(v), L.norm(w), L.pairing(v, w)) == (0, 0, 1)
            assert rep.gen_norm == -d == L.norm(rep.complement_gen)
        if find_hyperbolic_plane(L, 6) is not None:
            assert rep.found(), (a, b, c)
        seen.add("pos" if d > 0 and d % 8 else ("8|d" if d > 0 else "d<=0"))
    assert seen == {"pos", "8|d", "d<=0"}


def test_k3_witness_rank3_complement_is_the_hermite_kernel_row():
    # the closed-form generator (G v x G w over its content) is the basis
    # that orthogonal_complement's Hermite elimination gives
    def check(L):
        rep = k3_witness(L)
        if rep.found():
            S = Sublattice(L, rep.u_basis)
            assert rep.complement_gen == orthogonal_complement(L, S).basis[0], L.gram
        return rep.found()

    assert sum(check(labelling_lattice(d)) for d in range(2, 40_001) if d % 8 in (2, 4)) == 3146
    rng = Random(5)
    grams = []
    for _ in range(20_000):
        a, b = rng.randint(-300, 300), rng.randint(-300, 300)
        c = 2 * rng.randint(-20_000, 20_000)
        grams.append(((-2, 0, a), (0, -2, b), (a, b, c)))
    assert sum(check(GramLattice(g)) for g in grams) == 3833


def _rank3_generic_route(L, v):
    """The partner, complement generator and its norm of the isotropic v by
    the generic lattice routines: the xgcd fold of hyperbolic_partner and
    the Hermite elimination of orthogonal_complement."""
    w = hyperbolic_partner(L, v)
    g = orthogonal_complement(L, Sublattice(L, (v, w))).basis[0]
    return w, g, L.norm(g)


def test_rank3_k3_witness_closed_form_equals_the_generic_route():
    # every d = 2, 4 (mod 8) up to 10^5 with star2, and the d = 2p of the
    # pell-large benchmark draws (p = 1 (mod 4) prime in [5*10^4, 2*10^5),
    # drawn by Random(1))
    ds = [d for d in range(2, 100_001) if d % 8 in (2, 4) and flags(d).star2]
    assert len(ds) == 7522
    sieve = bytearray([1]) * 200_000
    for p in range(2, 448):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, 200_000, p)))
    pool = [2 * p for p in range(50_000, 200_000) if sieve[p] and p % 4 == 1]
    rng = Random(1)
    draws = sorted({rng.choice(pool) for _ in range(8192)})
    for d in ds + draws:
        L = labelling_lattice(d)
        v, w, g, gen_norm = oracle._rank3_plane(L.gram, two_square_decompositions(d // 2))
        assert (w, g, gen_norm) == _rank3_generic_route(L, v), d


def test_rank3_witness_rechecks_catch_a_wrong_gram_or_pair():
    # d = 10 with the Gram of d = 18: (2, 1) still solves P_5(-1), but
    # w = (0, 1, 1) is no longer isotropic
    wrong = ((-2, 0, 1), (0, -2, 0), (1, 0, 4))
    with pytest.raises(AssertionError):
        oracle._hilb2_witness(10, wrong, negative_pell(5))
    # (1, 2) is the pair of d/2 = 5; the others are coprime with matching
    # parities but do not sum to 5, so v is not isotropic
    gram = oracle._labelling_gram(10)
    assert oracle._rank3_plane(gram, [(1, 2)]) is not None
    for pair in ((1, 4), (3, 2), (1, 0)):
        with pytest.raises(AssertionError):
            oracle._rank3_plane(gram, [pair])


def test_k3_witness_rank4_absence_vs_box_scan():
    # "proven-absent" exactly when 8 | h, and then no labelling in a box has
    # a K3 discriminant; otherwise a K3 discriminant in the box is found
    rng = Random(31)
    seen = set()
    for _ in range(60):
        klmn = [rng.randint(-3, 3) * (2 if rng.random() < 0.5 else 1) for _ in range(4)]
        qa = qform_rank4(*klmn)
        L = GramLattice(qa.rank4_gram())
        rep = k3_witness(L)
        k3_discs = [
            qa.Q(x, y)
            for x in range(-6, 7)
            for y in range(-6, 7)
            if qa.Q(x, y) > 0 and flags(qa.Q(x, y)).star2
        ]
        if qa.h % 8 == 0:
            assert rep.status == "proven-absent" and not k3_discs, klmn
        else:
            assert rep.status != "proven-absent", klmn
            if k3_discs:
                assert rep.found() and rep.disc_raw == qa.Q(*rep.xy), klmn
        seen.add(rep.status)
    assert {"proven-absent", "found"} <= seen


def test_k3_witness_rank4_past_d_max_is_outside_the_search():
    # a discriminant past D_MAX lies outside the bounded search: most of
    # these Grams have one in the box, and none may raise DomainError
    rng = Random(1)
    seen = set()
    for _ in range(40):
        qa = qform_rank4(*(rng.randint(-(10**6), 10**6) for _ in range(4)))
        rep = k3_witness(GramLattice(qa.rank4_gram()))
        if rep.found():
            assert 0 < rep.disc_raw <= D_MAX, qa
            assert flags(rep.disc_raw).star2 and rep.disc_raw == qa.Q(*rep.xy), qa
        seen.add(rep.status)
    assert seen == {"found", "proven-absent", "not-found-within-bound"}


def test_k3_witness_rank4_prime_witness_meets_the_k3_condition():
    # for positive definite q with 8 not dividing h, the witness (x, y) of
    # the least prime p = 1 (mod 4) of q is coprime with Q(x, y) = h p, a
    # K3 discriminant: a rank-4 miss for such q is a miss of the box
    rng = Random(27)
    done = 0
    while done < 200:
        size = 10 ** rng.randint(1, 4)
        qa = qform_rank4(*(rng.randint(-size, size) for _ in range(4)))
        if qa.h % 8 == 0 or not qa.is_positive_definite():
            continue
        p, x, y = find_prime_1mod4(qa.q)
        if qa.h * p > D_MAX:
            continue
        assert gcd(x, y) == 1 and qa.Q(x, y) == qa.h * p, qa
        assert flags(qa.h * p).star2, qa
        rep = k3_witness(GramLattice(qa.rank4_gram()))
        assert rep.found() or max(abs(x), abs(y)) > K3_RANK4_BOX, qa
        done += 1


def test_k3_witness_rank4_returns_the_least_box_pair():
    # the least coprime pair of the box, by sup-norm then lexicographically
    # with the first nonzero coordinate positive, whose Q meets the K3 condition
    b = K3_RANK4_BOX
    box = sorted(
        ((x, y) for x in range(-b, b + 1) for y in range(-b, b + 1)
         if gcd(x, y) == 1 and (x > 0 or (x == 0 and y > 0))),
        key=lambda xy: (max(abs(xy[0]), abs(xy[1])), xy),
    )
    # pairings scaled by 3 or 7 put that prime in Q(1, 0) and Q(0, 1), so
    # the first hit often lies in a later shell
    rng = Random(17)
    for _ in range(150):
        scale = rng.choice((1, 3, 7))
        qa = qform_rank4(*(scale * rng.randint(-4, 4) for _ in range(4)))
        rep = k3_witness(GramLattice(qa.rank4_gram()))
        if qa.h % 8 == 0:
            assert rep.status == "proven-absent" and rep.xy is None
            continue
        least = next(
            (xy for xy in box if 0 < qa.Q(*xy) <= D_MAX and flags(qa.Q(*xy)).star2), None
        )
        assert rep.xy == least, qa
        assert rep.status == ("found" if least else "not-found-within-bound"), qa


def test_k3_witness_rank4_scan_computes_no_determinant(monkeypatch):
    # A = 2*10^12 + 2 puts every Q(x, y) of the box past D_MAX, so the scan
    # visits every pair; the three determinants are qform_rank4's pin
    L = GramLattice(qform_rank4(10**6, 1, 0, 10**6).rank4_gram())
    real_det, real_pairs, calls, visited = oracle._labelling_det, oracle._shell_pairs, [], []
    monkeypatch.setattr(oracle, "_labelling_det", lambda g, w: calls.append(w) or real_det(g, w))
    monkeypatch.setattr(oracle, "_shell_pairs", lambda b: (visited.append(xy) or xy for xy in real_pairs(b)))
    rep = k3_witness(L)
    assert rep.status == "not-found-within-bound"
    assert len(visited) == 512
    assert calls == [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]


def _det_off_at_1_1(gram):
    """A labelling determinant off by one at (1, 1) on this caller's own Gram."""

    def fault(monkeypatch):
        real = oracle._labelling_det
        monkeypatch.setattr(
            oracle, "_labelling_det", lambda g, w: real(g, w) + (g == gram and tuple(w) == (0, 0, 1, 1))
        )

    return fault


def _general_model_of_the_next_n(monkeypatch):
    # the pinned Q of N_(1,1,1,n+1) does not have the coefficients of 8 form
    real = oracle.counterexample_general
    monkeypatch.setattr(
        oracle, "counterexample_general", lambda k, l, m, n: replace(real(k, l, m, n), qform=real(k, l, m, n + 1).qform)
    )


def _model_of_the_next_n(monkeypatch):
    # counterexample_general(k, l, m, n) is handed qform_rank4's model of
    # n + 1, whose Gram is not its own twisted with kappa2 negated
    real = oracle.qform_rank4
    monkeypatch.setattr(oracle, "qform_rank4", lambda k, l, m, n: real(k, l, m, n + 2))


@pytest.mark.parametrize(
    "build, fault, message",
    [
        (
            lambda: qform_rank4(2, 1, -1, 1),
            _det_off_at_1_1(qform_rank4(2, 1, -1, 1).rank4_gram()),
            "Q at (1, 1) is not the labelling determinant",
        ),
        (lambda: counterexample_family(2), _general_model_of_the_next_n, "8 form for n = 2 is not (A, -B, C)"),
        (
            lambda: counterexample_general(2, 1, 0, 1),
            _model_of_the_next_n,
            "((2, 0, 4, 0), (0, 2, 2, 2), (4, 2, 0, 1), (0, 2, 1, 0)) twisted by -1 with kappa2 negated is not the model",
        ),
    ],
    ids=["qform_rank4", "counterexample_family", "counterexample_general"],
)
def test_labelling_form_pin_raises_from_each_caller(monkeypatch, build, fault, message):
    fault(monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(message)):
        build()


def test_counterexample_family_pins_its_form_by_coefficients(monkeypatch):
    # qform_rank4 pins Q with 3 determinants; counterexample_general compares
    # Grams and the family compares coefficients, and neither takes one
    real, calls = oracle._labelling_det, []
    monkeypatch.setattr(oracle, "_labelling_det", lambda g, w: calls.append(w) or real(g, w))
    counterexample_family(2)
    assert len(calls) == 3


def test_counterexample_general_checks_its_gram_against_the_pinned_model(monkeypatch):
    # the only determinants are qform_rank4's pin on the model Gram, which
    # is the general Gram twisted by -1 with kappa2 negated
    real, grams = oracle._labelling_det, []
    monkeypatch.setattr(oracle, "_labelling_det", lambda g, w: grams.append(g) or real(g, w))
    rep = counterexample_general(2, 1, 0, 1)
    assert grams == [rep.qform.rank4_gram()] * 3
    assert rep.qform.rank4_gram() == ((-2, 0, -4, 0), (0, -2, -2, 2), (-4, -2, 0, 1), (0, 2, 1, 0))


def test_k3_witness_rank3_requires_labelling_basis():
    # the basis is part of the signature: the same labelling lattice in the
    # basis (tau, lambda1, lambda2) is refused
    L = GramLattice(((2, 1, 0), (1, -2, 0), (0, 0, -2)))
    with pytest.raises(LatticeError):
        k3_witness(L)
    with pytest.raises(LatticeError):
        hilb2_criterion(L, (0, 0, 1))


def test_exact_isotropy_certificate_vs_enumeration():
    # for labelling-shaped Grams, nonzero isotropic vectors exist iff d/2
    # is a sum of two squares; cross-check both directions by enumeration
    from gmlattice.lattice import _norm_solutions

    rng = Random(55)
    done = 0
    while done < 80:
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        c = 2 * rng.randint(0, 5)
        G = GramLattice(((-2, 0, a), (0, -2, b), (a, b, c)))
        d = determinant(G)
        if d == 0:
            continue
        predicted = d > 0 and factored_sum_of_two_squares(factorize(d // 2))
        hits = [v for v in _norm_solutions(G.gram, 0, [40] * 3) if any(v)]
        if predicted:
            assert hits, (a, b, c, d)
        else:
            assert not hits, (a, b, c, d)
        done += 1


def test_k3_former_bounded_misses_are_found():
    # the box search of radius 20 missed these K3 discriminants; the exact
    # construction finds each plane by default
    for d in (3578, 3716, 3986):
        rep = classify(d)
        assert rep.star2
        k3 = rep.witnesses["k3"]
        assert k3["status"] == "found" and k3["gen_norm"] == -d, d


def test_hilb2_witness_huge_fundamental_solution():
    # d/2 = 1621 has a 38-digit fundamental solution; every identity must
    # survive the trip through unbounded integers exactly
    sol = negative_pell(1621)
    assert len(str(sol.n)) == 38 and len(str(sol.a)) == 37
    L, w = hilb2_witness(3242)
    assert L.norm(w) == 0
    assert L.pairing((1, 0, 0), w) == 1
    assert hilb2_criterion(L, w)
    assert labelling_det(L, w) == sol.a**2 * 3242


def test_classify_is_thread_safe_and_deterministic():
    # pure functions on immutable values: concurrent invocations must agree
    from concurrent.futures import ThreadPoolExecutor

    ds = [d for d in range(2, 241) if d % 8 in (0, 2, 4)]
    serial = [classify(d).to_dict() for d in ds]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda d: classify(d).to_dict(), ds))
    assert serial == parallel


def test_implication_chain_to_10k():
    # Pell-solvable implies the K3 condition implies the twisted condition
    for d in range(2, 10_001, 2):
        if negative_pell(d // 2) is not None:
            assert flags(d).star2, d
    for d in range(1, 10_001):
        rep = flags(d)
        if rep.star2:
            assert rep.star2_twisted, d


# ---------------------------------------------------------------------------
# Debarre-Macri and classify


def test_dm_examples():
    assert flags(2).dm_isomorphic is False
    assert flags(10).dm_isomorphic is False
    assert flags(26).dm_isomorphic is True
    assert flags(50).dm_isomorphic is None


def test_p2d5_is_read_off_the_half_period_of_sqrt_d_over_2():
    # for every d > 50 with star3, P_2d(5) is solvable iff the half period
    # that star3 walked has Q_k = 5 (sqrt(m), m = d/2), or Q_k = 10
    # ((1 + sqrt(m)) / 2, m = 5 (mod 8)) with, at unit index 1, B_{k-1}
    # even at such a k, walked from the nearer end of the half period;
    # pell_solvable walks sqrt(2d) on its own and is the independent
    # reference, and the route of each read is re-derived from its walk
    present = absent = back = 0
    routes = Counter()
    for d in range(52, 50_001, 2):
        sol, five = oracle._star3(d, oracle._local_flags(d)[1])
        if sol is None:
            continue
        assert five == pell_solvable(2 * d, 5), d
        assert flags(d).dm_isomorphic is not five, d
        present += five
        absent += not five
        m = d // 2
        q0 = 2 if m % 8 == 5 and m > _OMEGA_MIN else 1
        terms, qs, odd = _half_period(m, q0 - 1, q0)
        cubed = q0 == 2 and _least_unit(m, terms, qs, odd, q0)[1] % 2 == 1
        routes[q0, cubed, 5 * q0 in qs, five] += 1
        if q0 == 2 and not cubed and 10 in qs:
            back += 2 * qs.index(10) > len(qs)
    assert (present, absent) == (541, 2577)
    # every route is taken, the parity of B_{k-1} turns 72 reads of
    # Q_k = 10 at index 1 into "unsolvable", and it is walked back from the
    # end of the half period for 35 of the 91
    assert back == 35
    assert routes == {
        (1, False, False, False): 1722,
        (1, False, True, True): 297,
        (2, False, False, False): 237,
        (2, False, True, False): 72,
        (2, False, True, True): 19,
        (2, True, False, False): 546,
        (2, True, True, True): 225,
    }


@pytest.mark.parametrize(
    "d,walks",
    [
        (12, 0),  # 3 | 12: star2 fails, so star3 cannot hold
        (26, 1),  # 5 is no Q_k of sqrt(13), so P_52(5) is unsolvable
        (10, 1),  # the half period of sqrt(5) is empty, and m = 5 is set apart: (5, 1) solves P_20(5)
        (58, 1),  # 5 is a Q_k of sqrt(29), so P_116(5) is solvable
        (202, 1),  # (1 + sqrt(101)) / 2 has Q_1 = 10 at unit index 1, but B_0 = 1 is odd, so P_404(5) is not
    ],
)
def test_classify_walks_only_where_factors_leave_the_flags_open(monkeypatch, d, walks):
    calls = {"_half_period": 0, "orthogonal_complement": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in [m for n, m in sys.modules.items() if n.startswith("gmlattice.")]:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rep = classify(d)
    assert calls == {"_half_period": walks, "orthogonal_complement": 0}
    # the rank-3 K3 witness ran, with its complement in closed form
    assert rep.witnesses["k3"]["status"] == ("found" if rep.star2 else "proven-absent")


@pytest.mark.parametrize(
    "d,built",
    [(10, 1), (20, 1), (26, 1), (12, 1), (16, 0), (6, 0)],  # star3 holds at 10, 20 and 26
)
def test_classify_builds_one_labelling_lattice(monkeypatch, d, built):
    # one labelling Gram, and no GramLattice around it
    calls, lattices = [], []
    monkeypatch.setattr(oracle, "_labelling_gram", lambda d, real=oracle._labelling_gram: calls.append(d) or real(d))
    monkeypatch.setattr(oracle, "GramLattice", lambda gram: lattices.append(gram) or GramLattice(gram))
    rep = classify(d)
    assert len(calls) == built
    assert lattices == []
    assert (rep.star3 is not None) == (rep.witnesses["hilb2"] is not None) == (d in (10, 20, 26))


@pytest.mark.parametrize("d", [10, 12, 16, 26, 1000])
def test_classify_checks_size_and_star2_once(monkeypatch, d):
    calls = {"_check_size": 0, "_local_flags": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    classify(d)
    assert calls == {"_check_size": 1, "_local_flags": 1}


def _count_calls(monkeypatch, names):
    """Count the calls of each named function through every gmlattice
    module that binds it; returns {name: count}."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in [m for n, m in sys.modules.items() if n.startswith("gmlattice.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("kind, d", [("k3", 10), ("k3", 16), ("twisted", 10), ("hilb2", 10)])
def test_witness_checks_size_once(monkeypatch, capsys, kind, d, json_flag):
    # the CLI leaves the size check to the route it calls; 16 = 0 (mod 8)
    # needs no labelling Gram
    calls = _count_calls(monkeypatch, ["_check_size"])
    assert cli.main(["witness", kind, str(d), *json_flag]) in (0, 3)
    assert calls == {"_check_size": 1}
    assert capsys.readouterr().err == ""


def test_witness_k3_takes_the_route_of_classify(monkeypatch, capsys):
    # no K3WitnessReport is built, no Pell equation is solved, and the
    # "k3" entry is classify's
    calls = _count_calls(monkeypatch, ["K3WitnessReport", "_half_period"])
    assert cli.main(["witness", "k3", "10", "--json"]) == 0
    assert calls == {"K3WitnessReport": 0, "_half_period": 0}
    assert json.loads(capsys.readouterr().out) == {"d": 10, **classify(10).witnesses["k3"]}


@pytest.mark.parametrize("d", [10, 26, 58, 202, 1000, 4004])
def test_classify_factors_once_and_builds_one_list_of_pairs(monkeypatch, d):
    # the twisted and the K3 witness read one list of the pairs
    # X^2 + Y^2 = d/2 (2d for odd d), built from the one pass over the
    # prime powers of d
    factored, built = [], []
    read = {"_twisted_witness": [], "_rank3_plane": []}

    def counted(fn, log):
        def wrapper(*args):
            out = fn(*args)
            log.append(out)
            return out

        return wrapper

    def reading(name, fn):
        def wrapper(*args):
            read[name].append(args[-1])
            return fn(*args)

        return wrapper

    for module in [m for n, m in sys.modules.items() if n.startswith("gmlattice.")]:
        for name in ("prime_powers", "two_square_decompositions", "factored_two_square_decompositions"):
            if hasattr(module, name):
                log = factored if name == "prime_powers" else built
                monkeypatch.setattr(module, name, counted(getattr(module, name), log))
    for name in read:
        monkeypatch.setattr(oracle, name, reading(name, getattr(oracle, name)))
    rep = classify(d)
    assert len(factored) == 1
    assert len(built) == rep.star2_twisted  # 4004 = 4 * 7 * 11 * 13 has no pair
    pairs = built[0] if built else []
    assert read["_twisted_witness"] == ([pairs] if rep.star2_twisted else [])
    assert read["_rank3_plane"] == ([] if d % 8 == 0 else [pairs])
    for args in read.values():
        assert all(got is pairs for got in args if pairs)


@pytest.mark.parametrize(
    "d, read",
    [
        # 2 * 3 * 16666666631: 3 to an odd power ends the pass
        (99999999786, [(2, 1), (3, 1)]),
        # 2 * 3^2 * 5555555519: 3^2 fails star2 only, so the pass reads on
        # to the last prime, which is 3 (mod 4) too
        (99999999342, [(2, 1), (3, 2), (5555555519, 1)]),
    ],
)
def test_classify_stops_at_the_first_odd_power_of_a_prime_3_mod_4(monkeypatch, d, read):
    pulled = []

    def recorded(n):
        for pe in prime_powers(n):
            pulled.append(pe)
            yield pe

    monkeypatch.setattr(oracle, "prime_powers", recorded)
    rep = classify(d)
    assert pulled == read
    assert (rep.star2, rep.star2_twisted) == (False, False)
    pulled.clear()
    assert twisted_witness(d) is None
    assert pulled == read


def test_local_flags_equal_the_definitions_on_the_factorization():
    # star2: 8 does not divide d and no prime 3 (mod 4) divides it;
    # twisted: every prime 3 (mod 4) divides it to an even power; the
    # factors are read only where the twisted condition holds
    rng = Random(35)
    for d in [*range(1, 20_001), *(rng.randint(1, D_MAX) for _ in range(300))]:
        factors = factorize(d)
        star2 = d % 8 != 0 and all(p % 4 != 3 for p in factors)
        twisted = factored_sum_of_two_squares(factors)
        got = oracle._local_flags(d)
        assert got == ((factors if twisted else None), star2, twisted), d
        assert (got[0] is None) is not twisted, d


@pytest.mark.parametrize("d", [-10**30, -1, 0])
def test_d_below_1_has_no_factors_no_flag_and_no_witness(d):
    # the one guard for d < 1 sits in _local_flags; classify and
    # twisted_witness read it with no check of their own
    assert oracle._local_flags(d) == (None, False, False)
    assert twisted_witness(d) is None
    none = {"twisted": None, "hilb2": None, "k3": None}
    assert classify(d) == DivisorReport(d, False, "inadmissible", False, False, None, None, none)
    assert classify(d, with_witnesses=False).witnesses == none


def test_classify_witnesses_equal_the_public_witness_functions():
    # classify writes its witness dicts from the private helpers; each must
    # stay, field for field and in key order, what the public function gives
    for d in range(2, 20_001):
        if not admissible(d)[0]:
            continue
        twisted, hilb2 = twisted_witness(d), hilb2_witness(d)
        k3 = k3_witness(labelling_lattice(d)) if d % 8 else None
        expected = {
            "twisted": twisted and dict(zip("xyi", twisted)),
            "hilb2": hilb2 and {"gram": [list(r) for r in hilb2[0].gram], "w": list(hilb2[1])},
            "k3": k3 and {
                "status": k3.status,
                "u_basis": [list(v) for v in k3.u_basis] if k3.found() else None,
                "complement_gen": list(k3.complement_gen) if k3.found() else None,
                "gen_norm": k3.gen_norm,
            },
        }
        got = classify(d).witnesses
        assert got == expected and json.dumps(got) == json.dumps(expected), d


def test_classify_d50():
    rep = classify(50)
    assert rep.admissible and rep.divisor_label == "Dprime_union"
    assert rep.star2 and rep.star2_twisted
    assert rep.star3 is None
    assert rep.dm_isomorphic is None


def test_classify_d16():
    rep = classify(16)
    assert rep.admissible and rep.divisor_label == "D_d"
    assert not rep.star2 and rep.star2_twisted
    assert rep.star3 is None
    assert rep.witnesses["twisted"] == {"x": 2, "y": 2, "i": 1}


def test_classify_d10():
    rep = classify(10)
    assert rep.star3.as_pair() == (2, 1)
    assert rep.witnesses["hilb2"]["w"] == [0, 1, 1]
    assert rep.witnesses["k3"]["status"] == "found"
    assert rep.witnesses["k3"]["gen_norm"] == -10
    # the report is frozen, and equal to a re-run and to its own replace
    with pytest.raises(FrozenInstanceError):
        rep.star2 = False
    assert rep == classify(10) == replace(rep)
    assert repr(rep).startswith("DivisorReport(d=10, admissible=True, divisor_label='Dprime_union', star2=True,")


def test_classify_inadmissible_and_nonpositive():
    assert classify(6).divisor_label == "inadmissible"
    assert classify(-3).admissible is False
    assert classify(0).admissible is False


def test_divisor_report_enforces_chain():
    from gmlattice import PellSolution

    with pytest.raises(LatticeError):
        DivisorReport(
            d=12,
            admissible=True,
            divisor_label="D_d",
            star2=False,
            star2_twisted=False,
            star3=PellSolution(1, 1, 6, -5),
            dm_isomorphic=None,
        )
    with pytest.raises(LatticeError):
        DivisorReport(
            d=7,
            admissible=True,
            divisor_label="D_d",
            star2=False,
            star2_twisted=False,
            star3=None,
            dm_isomorphic=None,
        )


def test_divisor_report_dm_flag_needs_star3():
    from gmlattice import PellSolution

    sol = PellSolution(2, 1, 5, -1)
    for star3, dm in ((None, False), (sol, None)):
        with pytest.raises(LatticeError, match="dm_isomorphic must be None exactly when star3"):
            DivisorReport(
                d=10,
                admissible=True,
                divisor_label="Dprime_union",
                star2=True,
                star2_twisted=True,
                star3=star3,
                dm_isomorphic=dm,
            )


@pytest.mark.parametrize(
    "flags,witnesses,message",
    [
        # d = 12 has no two-squares decomposition, yet a twisted witness
        (
            {"d": 12, "star2": False, "star2_twisted": False},
            {"twisted": {"x": 1, "y": 2, "i": 1}},
            "twisted witness without star2_twisted",
        ),
        # d = 50 fails P_25(-1), yet a Hilbert-square witness
        (
            {"d": 50, "star2": True, "star2_twisted": True},
            {"hilb2": {"gram": [[-2, 0, 1], [0, -2, 0], [1, 0, 12]], "w": [0, 1, 1]}},
            "hilb2 witness without star3",
        ),
        # d = 10 satisfies the K3 condition, yet the plane is "proven-absent"
        (
            {"d": 10, "star2": True, "star2_twisted": True},
            {"k3": {"status": "proven-absent"}},
            "k3 witness status disagrees with star2",
        ),
    ],
)
def test_divisor_report_flags_agree_with_witnesses(flags, witnesses, message):
    with pytest.raises(LatticeError, match=message):
        DivisorReport(
            admissible=True,
            divisor_label="D_d",
            star3=None,
            dm_isomorphic=None,
            witnesses=witnesses,
            **flags,
        )


SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statement_under_src():
    # python -O strips assert statements; every re-check raises explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize(
    "setup, call, message",
    [
        # (0, 1, 1) is the w that n = 2, a = 1 (2^2 - 5 = -1) gives at
        # d = 10, but under a Gram with 4 in place of labelling_lattice(10)'s
        # 2 it has norm 2
        (
            "from gmlattice.pell import negative_pell",
            "oracle._hilb2_witness(10, ((-2, 0, 1), (0, -2, 0), (1, 0, 4)), negative_pell(5))",
            "w = (0, 1, 1) is not isotropic",
        ),
        # the same w under a Gram whose lambda1 pairs to 3 with tau: still
        # isotropic, but lambda1.w = 3
        (
            "from gmlattice.pell import negative_pell",
            "oracle._hilb2_witness(10, ((-2, 0, 3), (0, -2, 0), (3, 0, 2)), negative_pell(5))",
            "lambda1.w = (G w)_0 = 3, not 1",
        ),
        # (3, 2) has the parities of d = 10's Gram but sums to 13, not d/2 = 5
        (
            "",
            "oracle._rank3_plane(oracle._labelling_gram(10), [(3, 2)])",
            "((2, 1, 1), (3, 3, 2)) does not span U",
        ),
        # a square root one too large breaks the two-square pair of 13
        (
            "from gmlattice import arith\narith.isqrt = lambda n, real=arith.isqrt: real(n) + 1",
            "arith._prime_two_squares(13)",
            "3^2 + 3^2 != 13",
        ),
        # the model of n = 2 handed to the general family at n = 1
        (
            "real = oracle.qform_rank4\noracle.qform_rank4 = lambda k, l, m, n: real(k, l, m, n + 2)",
            "oracle.counterexample_general(2, 1, 0, 1)",
            "((2, 0, 4, 0), (0, 2, 2, 2), (4, 2, 0, 1), (0, 2, 1, 0)) twisted by -1 with kappa2 negated"
            " is not the model ((-2, 0, -4, 0), (0, -2, -2, 4), (-4, -2, 0, 1), (0, 4, 1, 0))",
        ),
        # a determinant one too large: L = U + <g> pins g.g = -det L = -10
        (
            "from gmlattice import intmat\nreal = intmat.bareiss_det\nintmat.bareiss_det = lambda M: real(M) + 1",
            "oracle._rank3_plane(oracle._labelling_gram(10), [(1, 2)])",
            "L = U + <g> forces g.g = -det L, g.g = -10",
        ),
    ],
    ids=["hilb2_witness", "hilb2_witness_lambda1", "rank3_k3_witness", "prime_two_squares", "counterexample_general", "rank3_k3_complement"],
)
def test_re_check_survives_python_O(setup, call, message):
    # each re-check raises explicitly, so python -O cannot strip it
    code = (
        "from gmlattice import oracle\n"
        "from gmlattice.lattice import GramLattice\n"
        f"{setup}\n"
        "try:\n"
        f"    {call}\n"
        "except AssertionError as e:\n"
        "    print('raised:', e)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, check=True, env=env, text=True, timeout=60
    ).stdout
    assert out == f"raised: {message}\n"
