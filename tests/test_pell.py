"""Continued fractions and Pell-type equations."""

from dataclasses import FrozenInstanceError, replace
from itertools import cycle, islice
from math import isqrt
from random import Random

import pytest

from gmlattice import (
    DomainError,
    cf_sqrt,
    classify,
    negative_pell,
    pell_general,
    pell_solvable,
)
from gmlattice.arith import is_square
from gmlattice.oracle import _p2d5_unsolvable
from gmlattice.pell import (
    _LEAF,
    _OMEGA_MIN,
    C_MAX,
    _continuant,
    _denominators,
    _half_period,
    _least_unit,
    _negative_pell,
)




def brute_negative_pell(m, limit):
    """Independent scan for the least-n solution of n^2 - m a^2 = -1."""
    for a in range(1, limit + 1):
        r = m * a * a - 1
        n = isqrt(r)
        if n * n == r:
            return (n, a)
    return None


def full_period(m):
    """Independent loop over one whole period of sqrt(m): [(a_k, Q_k)] for
    k = 1..l, closing at a_l = 2 a_0."""
    a0 = isqrt(m)
    p, q, a = 0, 1, a0
    out = []
    while a != 2 * a0:
        p = a * q - p
        q = (m - p * p) // q
        a = (a0 + p) // q
        out.append((a, q))
    return out


def convergents(m):
    """Yield (h_j, q_j, (-1)^(j+1) Q_{j+1}) for the convergents j = 0, 1, ...
    of sqrt(m), without end: a big-integer walk over ``full_period``."""
    h_prev, h, q_prev, q = 1, isqrt(m), 0, 1
    sign = -1
    for a, big_q in cycle(full_period(m)):
        yield h, q, sign * big_q
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
        sign = -sign


def fundamental_unit(m):
    """Fundamental solution of x^2 - m y^2 = 1: the first convergent of norm 1."""
    return next((h, q) for h, q, norm in convergents(m) if norm == 1)


def scan_pell(m, c, n_bound):
    """Every (n, a) with n, a >= 0, n <= n_bound and n^2 - m a^2 = c."""
    return [
        (n, isqrt((n * n - c) // m))
        for n in range(n_bound + 1)
        if n * n >= c and (n * n - c) % m == 0 and is_square((n * n - c) // m)
    ]


def reference_pell(m, c):
    """pell_general's representatives from the convergent walk: for c^2 < m
    the convergents up to the unit with norm c / g^2, times g, plus
    (sqrt(c), 0), kept below the unit bound; otherwise a scan up to that
    bound.  Square m = s^2 has every solution at
    n <= |c|."""
    if is_square(m):
        return scan_pell(m, c, abs(c))
    x1, _ = fundamental_unit(m)
    n_bound = isqrt(abs(c) * (x1 + 1) // 2) + 1
    if c * c >= m:
        return scan_pell(m, c, n_bound)
    sols = {(isqrt(c), 0)} if is_square(c) else set()
    for h, q, norm in convergents(m):
        sols |= {(g * h, g * q) for g in range(1, isqrt(abs(c)) + 1) if norm * g * g == c}
        if norm == 1:
            break
    return sorted(s for s in sols if s[0] <= n_bound)


def linear_negative_pell(m):
    """(h_{l-1}, q_{l-1}) by a linear walk over the whole period."""
    h_prev, h, q_prev, q = 1, isqrt(m), 0, 1
    for a, _ in full_period(m)[:-1]:
        h_prev, h = h, a * h + h_prev
        q_prev, q = q, a * q + q_prev
    return h, q


def test_cf_sqrt_classical_expansions():
    assert cf_sqrt(2) == (1, [2])
    assert cf_sqrt(5) == (2, [4])
    assert cf_sqrt(7) == (2, [1, 1, 1, 4])
    assert cf_sqrt(13) == (3, [1, 1, 1, 1, 6])


def test_cf_sqrt_rejects_squares_and_small():
    with pytest.raises(DomainError, match=r"sqrt\(9\) is an integer, no period"):
        cf_sqrt(9)
    with pytest.raises(DomainError):
        cf_sqrt(1)


def test_cf_convergents_satisfy_pell_parity():
    # after a full period the convergent solves x^2 - m y^2 = (-1)^period
    for m in (2, 3, 7, 13, 19, 29, 31, 61):
        a0, period = cf_sqrt(m)
        for h, q, norm in islice(convergents(m), len(period)):
            assert norm == h * h - m * q * q
        assert norm == (-1) ** len(period)
        x, y = fundamental_unit(m)
        assert x * x - m * y * y == 1


def test_negative_pell_examples():
    assert negative_pell(1).as_pair() == (0, 1)
    assert negative_pell(2).as_pair() == (1, 1)
    assert negative_pell(5).as_pair() == (2, 1)
    assert negative_pell(13).as_pair() == (18, 5)
    assert negative_pell(25) is None
    assert negative_pell(4) is None
    with pytest.raises(DomainError):
        negative_pell(0)


def test_negative_pell_matches_brute_force_and_is_minimal():
    # three-way agreement with the bounded independent scan: unsolvable
    # means no hit; solvable with small fundamental means the same hit;
    # fundamental beyond the box means the box is empty
    limit = 10**4
    for m in range(1, 80):
        sol = negative_pell(m)
        brute = (0, 1) if m == 1 else brute_negative_pell(m, limit)
        if sol is None:
            assert brute is None
        elif sol.a <= limit:
            assert sol.as_pair() == brute
            assert sol.n * sol.n - m * sol.a * sol.a == -1
        else:
            assert brute is None


def test_negative_pell_solvable_iff_odd_period():
    for m in range(2, 200):
        if is_square(m):
            assert negative_pell(m) is None
            continue
        odd = len(cf_sqrt(m)[1]) % 2 == 1
        assert (negative_pell(m) is not None) == odd


def test_pell_general_examples():
    assert (3, 1) in [s.as_pair() for s in pell_general(4, 5)]
    assert (5, 1) in [s.as_pair() for s in pell_general(20, 5)]
    assert pell_general(52, 5) == []


def test_pell_general_52_oracle():
    # 5 must be a square mod 13 for n^2 - 52 a^2 = 5; it is not,
    # and the bounded scan up to the class bound confirms emptiness
    assert all(pow(n, 2, 13) != 5 % 13 for n in range(13)) or False
    squares_mod_13 = {pow(n, 2, 13) for n in range(13)}
    assert 5 not in squares_mod_13
    for n in range(0, 42):
        r = n * n - 5
        assert not (r >= 0 and r % 52 == 0 and is_square(r // 52))


def test_pell_general_solutions_verify():
    rng = Random(31)
    for _ in range(40):
        m = rng.randint(2, 60)
        c = rng.choice([-4, -1, 1, 4, 5, 9])
        sols = pell_general(m, c)
        for s in sols:
            assert s.n * s.n - m * s.a * s.a == c
            assert s.n >= 0 and s.a >= 0
        assert sols == sorted(sols, key=lambda s: (s.n, s.a))


def test_pell_general_solvability_agrees_with_brute_force():
    # whenever a bounded independent scan finds any solution, the solver
    # must report the class as solvable (and all its answers must verify)
    for m in range(2, 121):
        if is_square(m):
            continue
        for c in (-9, -4, -1, 1, 4, 5, 9):
            got = pell_general(m, c)
            brute = None
            for n in range(0, 301):
                r = n * n - c
                if r >= 0 and r % m == 0 and is_square(r // m):
                    brute = (n, isqrt(r // m))
                    break
            if brute is not None:
                assert got, (m, c, brute)
            for s in got:
                assert s.n * s.n - m * s.a * s.a == c


def test_pell_general_huge_unit_fast():
    # d/2 = 181 has a 10-digit fundamental solution; the convergent route
    # must stay instant where a unit-bound scan would never finish
    sols = pell_general(724, 5)
    assert [s.as_pair() for s in sols] == [(27, 1)]


def test_pell_general_matches_the_convergent_walk():
    # square and non-square m, c^2 < m and c^2 >= m, solvable and not
    cases = 0
    for m in range(1, 101):
        for c in range(-12, 13):
            if c == 0:
                continue
            expected = reference_pell(m, c)
            assert [s.as_pair() for s in pell_general(m, c)] == expected, (m, c)
            cases += bool(expected)
    assert cases > 500


def test_pell_general_answers_c_squared_past_m_with_a_huge_unit():
    # 12^2 >= 109, whose fundamental unit has 15 digits, so the n bound is
    # 30796494; an a-scan up to 2949769 below it finds the same three
    assert [s.as_pair() for s in pell_general(109, 12)] == [
        (11, 1),
        (19064, 1826),
        (730289, 69949),
    ]
    assert pell_general(109, 11) == []


def test_convergent_norms_are_read_off_the_recurrence():
    # h_{k-1}^2 - m q_{k-1}^2 = (-1)^k Q_k with Q_k from full_period,
    # recomputed with big integers over two periods, and the period closes at the first Q_k = 1
    for m in range(2, 600):
        if is_square(m):
            continue
        period = full_period(m)
        assert [a for a, _ in period] == cf_sqrt(m)[1]
        assert [q for _, q in period].index(1) == len(period) - 1
        walk = convergents(m)
        for j in range(2 * len(period) + 2):
            h, q, norm = next(walk)
            assert h * h - m * q * q == norm == (-1) ** (j + 1) * period[j % len(period)][1]


def test_half_period_mirrors_to_the_full_period():
    for m in range(2, 20000):
        if is_square(m):
            continue
        period = full_period(m)
        terms, qs, odd = _half_period(m)
        half = list(zip(terms, qs))
        assert odd == (len(period) % 2 == 1), m
        assert len(half) == len(period) // 2, m
        assert half == period[: len(half)], m
        assert cf_sqrt(m) == (isqrt(m), [a for a, _ in period]), m
        # the least unit from the half period, squared at an odd period, is
        # the unit of P_m(1) that the continuant over a whole period (two
        # periods when odd) gives
        h, q = _least_unit(m, terms, qs, odd)
        x1, y1 = (h * h + m * q * q, 2 * h * q) if odd else (h, q)
        assert x1 * x1 - m * y1 * y1 == 1, m
        x, _, y, _ = _continuant([isqrt(m)] + [a for a, _ in period * (1 + odd)][:-1])
        assert (x1, y1) == (x, y), m


def test_negative_pell_is_the_first_norm_minus_one_convergent():
    for m in range(2, 5000):
        if is_square(m):
            continue
        sol = negative_pell(m)
        if len(full_period(m)) % 2 == 0:
            assert sol is None, m
            continue
        walk = convergents(m)
        first = next((h, q) for h, q, norm in walk if norm == -1)
        assert sol.as_pair() == first, m


def test_product_tree_matches_linear_walk():
    rng = Random(5)
    for size in (1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 3 * _LEAF + 7, 9 * _LEAF):
        terms = [rng.randint(1, 50) for _ in range(size)]
        w, x, y, z = 1, 0, 0, 1
        for a in terms:
            w, x, y, z = a * w + x, w, a * y + z, y
        assert _continuant(terms) == (w, x, y, z), size
        assert _denominators(terms) == (w, x), size
    # half periods longer than a leaf: a prime near 10^7 (2384 terms) and the
    # one prime p of the pell-large range past it (522 terms), both with odd
    # period
    for m in (10000141, 199021):
        terms, _, odd = _half_period(m)
        assert odd and len(terms) > _LEAF
        assert negative_pell(m).as_pair() == linear_negative_pell(m), m


def test_least_unit_equals_the_whole_period_convergent():
    # s = 0 (m = k^2 + 1), l = 2 (m = k^2 + 2), short odd and even periods
    ms = [2, 5, 10**6 + 1, 3, 6, 10**6 + 2, 7, 13, 94, 109]
    # rows of _LEAF - 1, _LEAF and _LEAF + 1 terms: the half period at an odd
    # period, the half period less its last term at an even one; the first
    # m > 2*10^5 of each kind by a scan
    rows = {235981: (-1, False), 215686: (0, False), 231079: (1, False)}
    rows |= {306049: (-1, True), 283369: (0, True), 229681: (1, True)}
    for m, (offset, odd) in rows.items():
        terms, _, m_odd = _half_period(m)
        assert (len(terms) - (not odd), m_odd) == (_LEAF + offset, odd), m
    # a half period of several leaves (2384 terms)
    for m in ms + list(rows) + [10000141]:
        terms, qs, odd = _half_period(m)
        # the first convergent of norm +-1 closes the first period
        whole = next((h, q) for h, q, norm in convergents(m) if norm * norm == 1)
        assert _least_unit(m, terms, qs, odd) == whole, m


def test_both_walks_of_m_5_mod_8_give_one_solution_and_one_read_of_norm_5():
    # for m = 5 (mod 8) past _OMEGA_MIN, negative_pell walks (1 + sqrt(m)) / 2:
    # the solution, or None, equals the one from the walk of sqrt(m), and so
    # does the read of P_m(5) (d = 2m; with no factors, no local obstruction
    # answers first); below the bound the read of (1 + sqrt(m)) / 2 would
    # be wrong at m = 29 and m = 61, so sqrt(m) is walked there
    index, wrong = {1: 0, 3: 0}, []
    for m in range(5, 20_000, 8):
        if is_square(m):
            continue
        terms, qs, odd = _half_period(m)
        root = (terms, qs, 1, False)
        sol, walk = _negative_pell(m)
        if m <= _OMEGA_MIN:
            assert walk == root, m
            omega = _half_period(m, 1, 2)
            if omega[2]:
                cubed = _least_unit(m, *omega, 2)[1] % 2 == 1
                omega_read = _p2d5_unsolvable(2 * m, {}, (*omega[:2], 2, cubed))
                if omega_read != _p2d5_unsolvable(2 * m, {}, root):
                    wrong.append(m)
            continue
        assert walk[:3] == (*_half_period(m, 1, 2)[:2], 2), m
        assert (sol.as_pair() if sol else None) == (_least_unit(m, terms, qs, odd) if odd else None), m
        if sol:
            index[3 if walk[3] else 1] += 1
            assert _p2d5_unsolvable(2 * m, {}, walk) == _p2d5_unsolvable(2 * m, {}, root), m
    assert wrong == [29, 61]
    # the unit index of Z[sqrt(m)] in Z[(1 + sqrt(m)) / 2] over the 886
    # solvable m: 3 (the solution is eps_0^3) for about two thirds
    assert index == {1: 262, 3: 624}


def test_pell_solvable_decides_c_squared_past_m_by_residues():
    # 11 is not a square mod 109, so no root z starts a walk; 12 is one
    assert all(z * z % 109 != 11 for z in range(109))
    assert pell_solvable(109, 11) is False
    assert pell_solvable(109, 12) is True


def test_pell_solvable_walks_the_parity_only_for_a_flipped_class(monkeypatch):
    from gmlattice import pell

    walks = []

    def counted(m):
        walks.append(m)
        return _half_period(m)

    monkeypatch.setattr(pell, "_half_period", counted)
    # the one class of c = -1 reaches the norm -1 itself at the end of the
    # odd periods of sqrt(2) and sqrt(13), so no parity is needed
    assert pell_solvable(2, -1) is True
    assert pell_solvable(13, -1) is True
    assert walks == []
    # sqrt(3) has period 2: its class reaches +1 after that even period,
    # whose length its own walk gives, so the flip is ruled out unwalked
    assert pell_solvable(3, -1) is False
    assert walks == []
    # a flipped class of norm other than +-1 still walks the parity: the
    # class of 5 under sqrt(6) reaches -5 (1 - 6 = -5), and the period 2
    # rules it out
    assert pell_solvable(6, 5) is False
    assert walks == [6]


def test_dm_isomorphism_check_matches_pell_general():
    for d in range(14, 3001, 2):
        expected = None if negative_pell(d // 2) is None else not pell_general(2 * d, 5)
        assert classify(d, with_witnesses=False).dm_isomorphic == expected, d


def test_pell_general_domain_errors():
    with pytest.raises(DomainError):
        pell_general(5, 0)
    with pytest.raises(DomainError):
        pell_general(0, 5)
    # both refuse |c| past C_MAX, where the loop over residues mod |c| is long
    for solve in (pell_general, pell_solvable):
        with pytest.raises(DomainError, match=f"C_MAX = {C_MAX}"):
            solve(10**13 + 1, C_MAX + 1)


def test_pell_solution_validates():
    from gmlattice import PellSolution

    with pytest.raises(DomainError):
        PellSolution(3, 1, 5, 5)
    # (-2, 1) and (2, -1) solve n^2 - 5 a^2 = -1, but are not non-negative
    for n, a in ((-2, 1), (2, -1)):
        with pytest.raises(DomainError, match="not a pair of non-negative integers"):
            PellSolution(n, a, 5, -1)
    sol = PellSolution(2, 1, 5, -1)
    with pytest.raises(FrozenInstanceError):
        sol.n = 3
    assert sol == replace(sol) and hash(sol) == hash(PellSolution(2, 1, 5, -1))
    assert repr(sol) == "PellSolution(n=2, a=1, m=5, c=-1)"
