"""The named verification suite, including fault injection."""

from dataclasses import replace

import pytest

from gmlattice import GramLattice, intmat, pell, standard_lattice, twist, verify
from gmlattice.verify import (
    check_glue_u,
    check_hilb2_shape_det,
    check_isotropic_labelling_det,
    check_list,
    check_mukai_embedding_complement,
    check_mukai_lattice,
    check_negative_pell_cf,
    check_normal_form_determinants,
    check_q_rank4_identity,
    check_vanishing_lattice,
    run_checks,
)


def test_all_checks_pass():
    results = run_checks()
    assert len(results) == 20
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_check_list_matches_results():
    names = [name for name, _ in check_list()]
    assert len(names) == len(set(names)) == 20
    assert [r.name for r in run_checks()] == names


def replace_standard(monkeypatch, name, wrong):
    """Make verify's standard_lattice(name) return wrong; other names are real."""
    monkeypatch.setattr(
        verify, "standard_lattice", lambda key: wrong if key == name else standard_lattice(key)
    )


def test_fault_injection_mukai_sign_error(monkeypatch):
    # a sign error in the rank-24 lattice must fail the named check
    replace_standard(monkeypatch, "LambdaTilde", twist(standard_lattice("LambdaTilde"), -1))
    ok, _ = check_mukai_lattice()
    assert not ok


def test_fault_injection_vanishing_lattice(monkeypatch):
    # rank 24 instead of 22, then the right rank with the sign reversed
    for wrong in (standard_lattice("LambdaTilde"), twist(standard_lattice("Lambda"), -1)):
        replace_standard(monkeypatch, "Lambda", wrong)
        ok, _ = check_vanishing_lattice()
        assert not ok


def test_fault_injection_embedding(monkeypatch):
    # the wrong sign convention breaks the complement invariants
    monkeypatch.setattr(verify, "mukai_sign_reversed", lambda: standard_lattice("LambdaTilde"))
    ok, _ = check_mukai_embedding_complement()
    assert not ok


def test_fault_injection_pell_parity(monkeypatch):
    # flip the period parity that pell derives for m = 29: negative_pell and
    # cf_sqrt then agree with each other, and both are wrong, since
    # 70^2 - 29 * 13^2 = -1; the check counts the period on its own
    real = pell._half_period

    def flipped(m, *start):
        terms, qs, odd = real(m, *start)
        return terms, qs, odd != (m == 29)

    monkeypatch.setattr(pell, "_half_period", flipped)
    assert pell.negative_pell(29) is None
    assert pell.cf_sqrt(29) == (5, [2, 1, 2, 10])
    ok, detail = check_negative_pell_cf()
    assert not ok
    assert detail == "m=29: period parity mismatch"


@pytest.mark.parametrize(
    "wrong",
    [((2, 0), (0, -2)), ((0, 2), (2, 0)), ((1, 0), (0, -1))],
    ids=["unglued", "U(2)", "odd-unimodular"],
)
def test_fault_injection_glue_u(monkeypatch, wrong):
    # a gluing that returns the unglued sum, U(2) or an odd unimodular
    # lattice in place of U must fail the check
    monkeypatch.setattr(verify, "glue", lambda g: GramLattice(wrong))
    ok, _ = check_glue_u()
    assert not ok


@pytest.mark.parametrize(
    "check, gram, detail",
    [
        (check_normal_form_determinants, ((-2, 0, 1), (0, -2, 1), (1, 1, 2)), "third form k=1: det=13"),
        (check_isotropic_labelling_det, ((-2, 0, 2), (0, -2, 2), (2, 2, 0)), "(x,y)=(2,2): det=17"),
        (check_hilb2_shape_det, ((-2, 0, 1), (0, -2, 2), (1, 2, 0)), "n=2: det=11"),
    ],
    ids=["normal-form", "isotropic", "hilb2"],
)
def test_fault_injection_determinant_off_at_one_grid_point(monkeypatch, check, gram, detail):
    # each proof is a grid sweep: a determinant off by one at one grid point
    # must fail it, naming that point
    real = intmat.bareiss_det
    monkeypatch.setattr(intmat, "bareiss_det", lambda M: real(M) + (M == gram))
    assert check() == (False, detail)


def test_fault_injection_rank4_coefficient_off_at_one_grid_point(monkeypatch):
    real = verify.qform_rank4

    def wrong(k, l, m, n):
        qa = real(k, l, m, n)
        return replace(qa, A=qa.A + 1) if (k, l, m, n) == (2, 1, 2, 2) else qa

    monkeypatch.setattr(verify, "qform_rank4", wrong)
    assert check_q_rank4_identity() == (False, "(2, 1, 2, 2): coefficient formulas")
