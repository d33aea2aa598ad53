"""The named verification suite, including fault injection."""

import pytest

from gmlattice import GramLattice, pell, standard_lattice, twist, verify
from gmlattice.verify import (
    check_glue_u,
    check_list,
    check_mukai_embedding_complement,
    check_mukai_lattice,
    check_negative_pell_cf,
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

    def flipped(m):
        terms, qs, odd = real(m)
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
