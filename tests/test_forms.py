"""Binary quadratic forms: reduction, representability, represented primes."""

import time
from math import isqrt
from random import Random

import pytest

from gmlattice import (
    BinaryForm,
    DomainError,
    LatticeError,
    find_prime_1mod4,
    intmat,
    reduce_form,
    represents,
)
from gmlattice.arith import is_prime


def apply_transform(f, T, x, y):
    return f(T[0][0] * x + T[0][1] * y, T[1][0] * x + T[1][1] * y)


def value_counts(f, cap):
    """value -> number of representations with value <= cap (exhaustive)."""
    adisc = -f.disc()
    xb = isqrt((4 * f.c * cap) // adisc)
    yb = isqrt((4 * f.a * cap) // adisc)
    out = {}
    for x in range(-xb, xb + 1):
        for y in range(-yb, yb + 1):
            v = f(x, y)
            if v <= cap:
                out[v] = out.get(v, 0) + 1
    return out


def test_reduce_lemma_form():
    g, T = reduce_form(BinaryForm(2, 5, 5))
    assert (g.a, g.b, g.c) == (2, 1, 2)
    assert g.disc() == BinaryForm(2, 5, 5).disc() == -15
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    assert det == 1


def test_reduce_already_reduced():
    g, T = reduce_form(BinaryForm(1, 0, 1))
    assert (g.a, g.b, g.c) == (1, 0, 1)
    assert T == ((1, 0), (0, 1))


def test_reduce_disc_minus_144():
    f = BinaryForm(10, 4, 4)
    g, _ = reduce_form(f)
    assert g.disc() == -144
    assert g.a == 4  # the minimum, confirmed by exhaustive scan
    best = min(
        f(x, y) for x in range(-12, 13) for y in range(-12, 13) if (x, y) != (0, 0)
    )
    assert best == 4


def test_reduce_random_properties():
    rng = Random(41)
    done = 0
    while done < 100:
        a = rng.randint(1, 12)
        b = rng.randint(-12, 12)
        c = rng.randint(1, 12)
        f = BinaryForm(a, b, c)
        if not f.is_positive_definite():
            continue
        g, T = reduce_form(f)
        assert g.is_reduced()
        assert g.disc() == f.disc()
        assert T[0][0] * T[1][1] - T[0][1] * T[1][0] == 1
        for x, y in ((1, 0), (0, 1), (2, -3), (-1, 4)):
            assert g(x, y) == apply_transform(f, T, x, y)
        assert value_counts(f, 30) == value_counts(g, 30)
        done += 1


def test_reduce_boundary_sign_convention():
    # a == c with b < 0 is properly equivalent to the b > 0 version
    g, T = reduce_form(BinaryForm(2, -1, 2))
    assert (g.a, g.b, g.c) == (2, 1, 2)
    assert T[0][0] * T[1][1] - T[0][1] * T[1][0] == 1
    g2, _ = reduce_form(BinaryForm(3, -3, 5))  # |b| = a boundary
    assert g2.is_reduced() and g2.b >= 0


def test_find_prime_cap_semantics():
    # every nonzero value of this primitive form is at least 10**6 + 1; the
    # least prime 1 (mod 4) among them lies at (4, -5)
    assert find_prime_1mod4(BinaryForm(10**6 + 1, 1, 10**6 + 1)) == (41000021, 4, -5)
    # no value of this form is at most D_MAX: refused, and at once
    start = time.perf_counter()
    with pytest.raises(DomainError, match="D_MAX"):
        find_prime_1mod4(BinaryForm(10**12, 1, 10**12))
    # x^2 = 1 (mod 4) is no prime, and the first value with y != 0 is
    # past D_MAX
    with pytest.raises(DomainError, match="D_MAX"):
        find_prime_1mod4(BinaryForm(1, 0, 10**14 + 4))
    assert time.perf_counter() - start < 0.1


def test_reduce_rejects_indefinite():
    with pytest.raises(LatticeError, match="reduction implemented for positive definite forms"):
        reduce_form(BinaryForm(1, 4, 1))


def test_represents_examples():
    assert represents(BinaryForm(2, 5, 5), 1) is None
    assert represents(BinaryForm(2, 1, 1), 1) == (0, 1)
    assert represents(BinaryForm(1, 0, 1), 2) == (1, 1)
    assert represents(BinaryForm(1, 0, 1), 0) == (0, 0)
    # far from reduced (x^2 + y^2 under a transform of entries near 10^5):
    # the search runs on the reduced form and maps its solutions back
    assert represents(BinaryForm(20000200001, 40000000000, 19999800001), 5) == (99998, -99999)


def test_represents_none_agrees_with_independent_scan():
    rng = Random(42)
    done = 0
    while done < 60:
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 9)
        f = BinaryForm(a, b, c)
        if not f.is_positive_definite():
            continue
        v = rng.randint(1, 40)
        got = represents(f, v)
        oracle_hits = [
            (x, y)
            for x in range(-25, 26)
            for y in range(-25, 26)
            if f(x, y) == v
        ]
        if got is None:
            assert not oracle_hits
        else:
            assert f(*got) == v and got in oracle_hits
        done += 1


def ordered_scan(f, value):
    """The reference representation search: x, then y, each in the order
    0, 1, -1, 2, -2, ... inside the ellipse box x^2 <= 4c value/|disc|,
    y^2 <= 4a value/|disc|; the first hit, or None."""
    adisc = -f.disc()

    def ordered(bound):
        yield 0
        for k in range(1, bound + 1):
            yield k
            yield -k

    for x in ordered(isqrt(4 * f.c * value // adisc)):
        for y in ordered(isqrt(4 * f.a * value // adisc)):
            if f(x, y) == value:
                return (x, y)
    return None


def test_represents_returns_the_first_witness_of_the_ordered_scan():
    rng = Random(7)
    done = 0
    while done < 150:
        f = BinaryForm(rng.randint(1, 30), rng.randint(-30, 30), rng.randint(1, 30))
        if not f.is_positive_definite():
            continue
        for v in range(60):
            assert represents(f, v) == ordered_scan(f, v), (f, v)
        done += 1
    # several witnesses, of which the scan order picks one
    assert represents(BinaryForm(1, 0, 1), 25) == (0, 5)
    assert represents(BinaryForm(1, 1, 1), 7) == (1, 2)
    assert represents(BinaryForm(2, 1, 3), 6) == (1, 1)


def test_represents_bounds_its_ellipse_without_a_determinant(monkeypatch):
    # the box comes from completing the square on the reduced form, so no
    # minor of its Gram is taken
    real, calls = intmat.bareiss_det, []
    monkeypatch.setattr(intmat, "bareiss_det", lambda g: calls.append(g) or real(g))
    assert represents(BinaryForm(2, 1, 3), 6) == (1, 1)
    assert represents(BinaryForm(2, 5, 5), 1) is None
    assert calls == []


def test_represents_rejects_bad_inputs():
    with pytest.raises(LatticeError, match="representation search needs a positive definite form"):
        represents(BinaryForm(1, 4, 1), 3)
    with pytest.raises(DomainError, match="non-negative"):
        represents(BinaryForm(1, 0, 1), -1)


def test_find_prime_examples():
    assert find_prime_1mod4(BinaryForm(5, 2, 2)) == (5, 1, 0)
    assert find_prime_1mod4(BinaryForm(1, 0, 1)) == (5, 1, 2)


def test_find_prime_on_reduced_counterexample_form():
    # oracle first: exhaustive scan of represented values <= 200
    f = BinaryForm(2, 1, 2)
    represented = sorted(
        {f(x, y) for x in range(-20, 21) for y in range(-20, 21) if f(x, y) <= 200}
    )
    primes_1mod4 = [v for v in represented if v % 4 == 1 and is_prime(v)]
    assert primes_1mod4[0] == 5
    got = find_prime_1mod4(f)
    assert got[0] == 5
    assert f(got[1], got[2]) == 5


def test_find_prime_witness_verifies():
    # draw forms from the rank-4 analysis, where a represented prime
    # 1 (mod 4) is guaranteed; the witness must recompute correctly
    from gmlattice import qform_rank4

    rng = Random(43)
    done = 0
    while done < 40:
        klmn = [rng.randint(-12, 12) for _ in range(4)]
        if all(v % 2 == 0 for v in klmn):
            continue
        q = qform_rank4(*klmn).q
        if not q.is_positive_definite():
            continue
        got = find_prime_1mod4(q)
        assert got is not None
        p, x, y = got
        assert is_prime(p) and p % 4 == 1
        assert q(x, y) == p
        done += 1


def test_find_prime_proves_absence_from_the_mod_4_table():
    # (11, 14, 11) only represents odd values 3 (mod 4), and f(x, y) mod 4
    # depends on (x, y) mod 4 alone: None is a proof, given at once
    f = BinaryForm(11, 14, 11)
    start = time.perf_counter()
    assert find_prime_1mod4(f) is None
    assert time.perf_counter() - start < 0.01
    vals = {f(x, y) for x in range(-30, 31) for y in range(-30, 31)}
    assert all(v % 4 == 3 for v in vals if v % 2 == 1 and v > 0)


def test_find_prime_equals_a_brute_ellipse_scan():
    # None iff the ellipse holds no prime 1 (mod 4) at all, which the mod-4
    # table proves; otherwise the least such prime in the ellipse of its
    # own size, with a witness that represents it
    rng = Random(27)
    done = absent = 0
    while done < 300:
        f = BinaryForm(rng.randint(1, 40), rng.randint(-40, 40), rng.randint(1, 40))
        if not (f.is_positive_definite() and f.is_primitive()):
            continue
        got = find_prime_1mod4(f)
        bound = 2000 if got is None else got[0]
        primes = sorted(v for v in value_counts(f, bound) if v % 4 == 1 and is_prime(v))
        table = {f(x, y) % 4 for x in range(4) for y in range(4)}
        if got is None:
            assert 1 not in table and not primes, f
            absent += 1
        else:
            p, x, y = got
            assert 1 in table and primes[0] == p and f(x, y) == p, f
        done += 1
    assert 0 < absent < done


def test_find_prime_rejects_imprimitive_and_indefinite():
    with pytest.raises(LatticeError, match="prime search needs a primitive form"):
        find_prime_1mod4(BinaryForm(2, 0, 2))
    with pytest.raises(LatticeError, match="prime search needs a positive definite form"):
        find_prime_1mod4(BinaryForm(1, 3, 1))


def test_form_text_round_trip():
    f = BinaryForm(2, -1, 3)
    assert f.to_text() == "2 -1 3"
    assert str(BinaryForm(2, 1, 2)) == "2x^2 + xy + 2y^2"
    assert str(BinaryForm(1, -1, 1)) == "x^2 - xy + y^2"
