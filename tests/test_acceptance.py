"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a single `[acceptance] ... PASS` line (visible with -s or
in the captured output); a failing assertion marks the criterion failed.
A paper identity is stated once, in ``gmlattice.verify``, as the
per-instance predicate that ``verify-paper`` sweeps over a few instances;
a criterion sweeps the same predicate over its own, wider range.
"""

import time
from math import isqrt
from random import Random

from gmlattice import (
    admissible,
    cf_sqrt,
    classify,
    k3_witness,
    labelling_lattice,
    negative_pell,
    pell_general,
    qform_rank4,
)
from gmlattice.arith import is_square
from gmlattice.cli import main as cli_main
from gmlattice.verify import (
    admissibility_failure,
    d50_failure,
    family_failure,
    hilb2_det_failure,
    hilb2_witness_failure,
    isotropic_det_failure,
    lemma_failure,
    normal_form_failure,
    pell_parity_failure,
    period_length,
    q_identity_failure,
    run_checks,
)


def report(num, desc, elapsed, budget):
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"[acceptance] criterion {num:2d} ({desc}): PASS in {elapsed:.3f}s (budget {budget}s)")


def failures(details):
    """The failure details in a sweep of per-instance predicate results."""
    return [x for x in details if x is not None]


def passed_checks(names):
    results = [r for r in run_checks() if r.name in names]
    assert [r.name for r in results] == list(names)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_criterion_01_determinant_identities():
    rng = Random(101)
    pairs = [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(500)]
    ks, ns = range(-5, 30), range(-15, 16)
    t0 = time.perf_counter()
    assert failures(isotropic_det_failure(x, y) for x, y in pairs) == []
    assert failures(map(normal_form_failure, ks)) == []  # three forms each
    assert failures(map(hilb2_det_failure, ns)) == []
    elapsed = time.perf_counter() - t0
    dets = len(pairs) + 3 * len(ks) + len(ns)
    assert elapsed / dets < 0.001, "each determinant must take < 1 ms"
    report(1, "determinant identities", elapsed, 0.001 * dets)


def test_criterion_02_classify_50():
    classify(50, with_witnesses=False)  # warm up imports and caches
    t0 = time.perf_counter()
    rep = classify(50, with_witnesses=False)
    elapsed = time.perf_counter() - t0
    assert d50_failure(rep.star2, rep.star2_twisted, rep.star3) is None
    full = classify(50)
    assert d50_failure(full.star2, full.star2_twisted, full.star3) is None
    report(2, "classify(50) decision", elapsed, 0.001)


def test_criterion_03_admissibility_and_star3_mod8():
    t0 = time.perf_counter()
    assert failures(map(admissibility_failure, range(1, 10_001))) == []
    for d in range(8, 10_001, 8):
        assert negative_pell(d // 2) is None, f"a^2 d = 2n^2+2 must be impossible for 8 | {d}"
    elapsed = time.perf_counter() - t0
    report(3, "admissibility and 8|d excludes the Pell condition", elapsed, 1.0)


def test_criterion_04_q_identity_suite():
    rng = Random(104)
    t0 = time.perf_counter()
    draws = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(1000)]
    assert failures(q_identity_failure(*draw) for draw in draws) == []
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
        assert lemma_failure(*klmn) is None
        primes_found += qform_rank4(*klmn).q.is_positive_definite()
        done += 1
    assert primes_found > 0
    elapsed = time.perf_counter() - t0
    report(5, f"lemma suite, 1000 random ({primes_found} definite)", elapsed, 10.0)


def test_criterion_06_counterexample_family():
    t0 = time.perf_counter()
    assert failures(map(family_failure, range(0, 21))) == []
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
    assert failures(map(pell_parity_failure, range(2, 501))) == []
    for m in range(2, 501):
        if not is_square(m):
            assert len(cf_sqrt(m)[1]) == period_length(m), m
    # fundamentals for m in {1, 2, 5, 13}, and m = 25 unsolvable
    passed_checks(("negative-pell-continued-fractions",))
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
        assert classify(d, with_witnesses=False).star2_twisted == brute, d
    elapsed = time.perf_counter() - t0
    report(8, "twisted condition = sum of two squares, d <= 5000", elapsed, 5.0)


ADMISSIBLE_TO_2000 = [d for d in range(2, 2001, 2) if admissible(d)[0]]


def hilb2_sweep():
    """Criterion 9's failures over every admissible d <= 2000."""
    return failures(map(hilb2_witness_failure, ADMISSIBLE_TO_2000))


def test_criterion_09_hilb2_witnesses():
    t0 = time.perf_counter()
    assert hilb2_sweep() == []
    found = sum(negative_pell(d // 2) is not None for d in ADMISSIBLE_TO_2000)
    assert found >= 10
    elapsed = time.perf_counter() - t0
    report(9, f"Hilbert-square witnesses, admissible d <= 2000 ({found} solvable)", elapsed, 30.0)


def test_criterion_09_sweeps_the_check_predicate(monkeypatch):
    # a labelling determinant off by one at d = 212, the first Pell-solvable
    # admissible d past verify-paper's range, passes verify-paper and fails
    # the criterion's wider sweep of the same predicate
    from gmlattice import verify
    from gmlattice.lattice import determinant

    real = verify.labelling_det
    monkeypatch.setattr(verify, "labelling_det", lambda L, w: real(L, w) + (determinant(L) == 212))
    assert all(r.passed for r in run_checks())
    assert hilb2_sweep() == ["d=212: labelling determinant"]


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
