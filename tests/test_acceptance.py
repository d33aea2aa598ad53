"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a single `[acceptance] ... PASS` line (visible with -s or
in the captured output); a failing assertion marks the criterion failed.
"""

import time
from math import isqrt
from random import Random

from gmlattice import (
    BinaryForm,
    cf_sqrt,
    classify,
    cond_star2_twisted,
    cond_star3,
    counterexample_family,
    hilb2_criterion,
    hilb2_witness,
    k3_witness,
    labelling_lattice,
    lemma_checks,
    negative_pell,
    pell_general,
    qform_rank4,
)
from gmlattice.arith import is_square
from gmlattice.oracle import labelling_det
from gmlattice import intmat
from gmlattice.cli import main as cli_main
from gmlattice.verify import run_checks


def report(num, desc, elapsed, budget):
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"[acceptance] criterion {num:2d} ({desc}): PASS in {elapsed:.3f}s (budget {budget}s)")


def test_criterion_01_determinant_identities():
    rng = Random(101)
    cases = []
    for _ in range(500):
        x, y = rng.randint(-60, 60), rng.randint(-60, 60)
        cases.append((((-2, 0, x), (0, -2, y), (x, y, 0)), 2 * x * x + 2 * y * y))
    for k in range(-5, 30):
        cases.append((((-2, 0, 1), (0, -2, 0), (1, 0, 2 * k)), 2 + 8 * k))
        cases.append((((-2, 0, 1), (0, -2, 1), (1, 1, 2 * k)), 4 + 8 * k))
    for n in range(-15, 16):
        cases.append((((-2, 0, 1), (0, -2, n), (1, n, 0)), 2 * n * n + 2))
    t0 = time.perf_counter()
    for gram, expected in cases:
        assert intmat.bareiss_det(gram) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed / len(cases) < 0.001, "each determinant must take < 1 ms"
    report(1, "determinant identities", elapsed, 0.001 * len(cases))


def test_criterion_02_classify_50():
    classify(50, with_witnesses=False)  # warm up imports and caches
    t0 = time.perf_counter()
    rep = classify(50, with_witnesses=False)
    elapsed = time.perf_counter() - t0
    assert rep.star2 is True
    assert rep.star2_twisted is True
    assert rep.star3 is None
    full = classify(50)
    assert (full.star2, full.star2_twisted, full.star3) == (True, True, None)
    report(2, "classify(50) decision", elapsed, 0.001)


def test_criterion_03_admissibility_and_star3_mod8():
    t0 = time.perf_counter()
    from gmlattice import admissible

    for d in range(1, 10_001):
        assert admissible(d)[0] == (d % 8 in (0, 2, 4))
    for d in range(8, 10_001, 8):
        assert cond_star3(d) is None, f"a^2 d = 2n^2+2 must be impossible for 8 | {d}"
    elapsed = time.perf_counter() - t0
    report(3, "admissibility and 8|d excludes the Pell condition", elapsed, 1.0)


def test_criterion_04_q_identity_suite():
    rng = Random(104)
    t0 = time.perf_counter()
    for _ in range(1000):
        k, l, m, n, x, y = (rng.randint(-50, 50) for _ in range(6))
        qa = qform_rank4(k, l, m, n)
        p, r = k * x + m * y, l * x + n * y
        direct = intmat.bareiss_det(((-2, 0, p), (0, -2, r), (p, r, 2 * x * y)))
        assert qa.Q(x, y) == direct
    elapsed = time.perf_counter() - t0
    report(4, "rank-4 Q polynomial identity, 1000 random", elapsed, 1.0)


def test_criterion_05_lemma_suite():
    rng = Random(105)
    t0 = time.perf_counter()
    done = 0
    primes_found = 0
    while done < 1000:
        klmn = [rng.randint(-50, 50) for _ in range(4)]
        if all(v % 2 == 0 for v in klmn):
            continue
        qa = qform_rank4(*klmn)
        rep = lemma_checks(qa)
        assert rep.h_odd_primes_1mod4, klmn
        assert rep.h_not_div_8, klmn
        assert rep.a_not_3mod4 and rep.c_not_3mod4 and rep.b_even, klmn
        if qa.q.is_positive_definite():
            assert rep.prime_status == "found", klmn
            p, x, y = rep.prime
            assert p % 4 == 1 and qa.q(x, y) == p
            primes_found += 1
        done += 1
    assert primes_found > 0
    elapsed = time.perf_counter() - t0
    report(5, f"lemma suite, 1000 random ({primes_found} definite)", elapsed, 10.0)


def test_criterion_06_counterexample_family():
    t0 = time.perf_counter()
    for n in range(0, 21):
        rep = counterexample_family(n)
        assert rep.kappa_checks, n
        assert (rep.represents_one is not None) == (n in (0, 1)), n
        assert rep.all_discs_divisible_by_8, n
        if n == 2:
            assert rep.reduced_form == BinaryForm(2, 1, 2)
    elapsed = time.perf_counter() - t0
    report(6, "counterexample family n in 0..20", elapsed, 5.0)


def test_criterion_07_pell():
    t0 = time.perf_counter()
    limit = 10**4
    for m in range(1, 201):
        sol = negative_pell(m)
        brute = None
        for a in range(1, limit + 1):
            r = m * a * a - 1
            n = isqrt(r)
            if n * n == r:
                brute = (n, a)
                break
        if sol is None:
            assert brute is None, m
        elif sol.a <= limit:
            assert brute == sol.as_pair(), m
        else:
            assert brute is None, m
    for m in range(2, 501):
        if is_square(m):
            assert negative_pell(m) is None
            continue
        # count the period with the textbook loop, run until a_k = 2 a_0,
        # so that the parity does not come from pell itself
        a0 = isqrt(m)
        p, q, a, period = 0, 1, a0, 0
        while a != 2 * a0:
            p = a * q - p
            q = (m - p * p) // q
            a = (a0 + p) // q
            period += 1
        assert len(cf_sqrt(m)[1]) == period, m
        assert (negative_pell(m) is not None) == (period % 2 == 1), m
    assert negative_pell(25) is None
    assert negative_pell(1).as_pair() == (0, 1)
    assert negative_pell(2).as_pair() == (1, 1)
    assert negative_pell(5).as_pair() == (2, 1)
    assert negative_pell(13).as_pair() == (18, 5)
    elapsed = time.perf_counter() - t0
    report(7, "negative Pell vs brute force and period parity", elapsed, 10.0)


def test_criterion_08_twisted_vs_two_squares():
    t0 = time.perf_counter()
    for d in range(1, 5001):
        brute = False
        x = 0
        while x * x * 2 <= d:
            r = d - x * x
            y = isqrt(r)
            if y * y == r:
                brute = True
                break
            x += 1
        assert cond_star2_twisted(d) == brute, d
    elapsed = time.perf_counter() - t0
    report(8, "twisted condition = sum of two squares, d <= 5000", elapsed, 5.0)


def test_criterion_09_hilb2_witnesses():
    t0 = time.perf_counter()
    found = 0
    for d in range(2, 2001, 2):
        if d % 8 not in (0, 2, 4):
            continue
        sol = cond_star3(d)
        wit = hilb2_witness(d)
        assert (wit is not None) == (sol is not None), d
        if sol is None:
            continue
        n, a = sol.as_pair()
        if d % 8 == 2:
            assert n % 2 == 0, d
        else:
            assert d % 8 == 4, d
            assert n % 2 == 1 and a % 4 == 1, d
        L, w = wit
        assert L.norm(w) == 0
        assert L.pairing((1, 0, 0), w) == 1
        assert hilb2_criterion(L, w)
        other = L.pairing((0, 1, 0), w)
        assert labelling_det(L, w) == 2 * other * other + 2 == a * a * d
        found += 1
    assert found >= 10
    elapsed = time.perf_counter() - t0
    report(9, f"Hilbert-square witnesses, admissible d <= 2000 ({found} solvable)", elapsed, 30.0)


def passed_checks(names):
    results = run_checks(names=names)
    assert [r.name for r in results] == list(names)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_criterion_10_mukai_model_invariants():
    t0 = time.perf_counter()
    passed_checks(("mukai-embedding-complement", "glue-hyperbolic-plane"))
    elapsed = time.perf_counter() - t0
    report(10, "Mukai complement and diagonal glue", elapsed, 1.0)


def test_criterion_11_k3_witness_instances():
    t0 = time.perf_counter()
    for d in (2, 10, 26, 50):
        L = labelling_lattice(d)
        rep = k3_witness(L)
        assert rep.status == "found", d
        v, w = rep.u_basis
        assert L.norm(v) == 0 and L.norm(w) == 0 and L.pairing(v, w) == 1
        assert rep.gen_norm == -d
    rep12 = k3_witness(labelling_lattice(12))
    assert rep12.status == "proven-absent"
    # the suite's own independent exhaustive scan at bound 30
    L12 = labelling_lattice(12)
    g = L12.gram
    for x in range(-30, 31):
        for y in range(-30, 31):
            for z in range(-30, 31):
                nrm = (
                    g[0][0] * x * x
                    + g[1][1] * y * y
                    + g[2][2] * z * z
                    + 2 * (g[0][1] * x * y + g[0][2] * x * z + g[1][2] * y * z)
                )
                assert nrm != 0 or (x, y, z) == (0, 0, 0)
    elapsed = time.perf_counter() - t0
    report(11, "K3 witnesses for d in {2,10,26,50}; d=12 proven absent", elapsed, 5.0)


def test_criterion_12_debarre_macri():
    t0 = time.perf_counter()
    passed_checks(("double-epw-isomorphism",))
    # the check tests membership; the solution list of P_4(5) is exactly one
    assert [s.as_pair() for s in pell_general(4, 5)] == [(3, 1)]
    elapsed = time.perf_counter() - t0
    report(12, "double-EPW isomorphism checks d in {2,10,26}", elapsed, 1.0)


def test_criterion_13_verify_paper(capsys):
    t0 = time.perf_counter()
    code = cli_main(["verify-paper"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "20/20 checks passed" in out
    with capsys.disabled():
        print()
        report(13, "verify-paper full run", elapsed, 60.0)
