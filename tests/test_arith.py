"""Elementary number-theory helpers against brute-force oracles."""

from math import gcd, isqrt
from random import Random

import pytest

from gmlattice.arith import (
    _prime_two_squares,
    factored_sum_of_two_squares,
    factorize,
    is_prime,
    is_square,
    two_square_decompositions,
    xgcd,
)


def trial_is_prime(n):
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == trial_is_prime(n), n
    for n in (10**6 + 3, 10**9 + 7, 10**9 + 9, 2**31 - 1):
        assert is_prime(n)
    assert not is_prime(10**12 + 1)


def test_factorize_round_trip():
    rng = Random(61)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_equals_a_smallest_prime_factor_sieve():
    # every n < 2*10^5, in increasing prime order: factorize skips a 6k +- 1
    # pair only when neither member divides n
    hi = 2 * 10**5
    spf = list(range(hi))
    for p in range(2, isqrt(hi) + 1):
        if spf[p] == p:
            for k in range(p * p, hi, p):
                if spf[k] == k:
                    spf[k] = p
    for n in range(1, hi):
        expect, m = {}, n
        while m > 1:
            expect[spf[m]] = expect.get(spf[m], 0) + 1
            m //= spf[m]
        assert list(factorize(n).items()) == list(expect.items()), n


@pytest.mark.parametrize(
    "factors",
    [
        {316223: 2},  # 316223 = 5 (mod 6) sits in the f slot, 316219 = 1 (mod 6) in f + 2
        {316219: 2},
        {316219: 1, 316223: 1},
        {316223: 1, 316259: 1},
        {2: 1, 316223: 3},
        {2: 1, 316219: 3},
        {316241: 1, 316243: 1},  # twin primes straddling sqrt(D_MAX) = 316227.8
        {315011: 1, 315013: 1},
        {5: 1, 7: 1},  # the first 6k +- 1 twin pair, both in one step
        {3: 1, 5: 2, 7: 1, 316223: 1},
    ],
)
def test_factorize_near_sqrt_d_max(factors):
    assert all(trial_is_prime(p) for p in factors)
    n = 1
    for p, e in factors.items():
        n *= p**e
    assert list(factorize(n).items()) == sorted(factors.items())


def test_factorize_twin_prime_products():
    twins = [p for p in range(5, 20000, 6) if trial_is_prime(p) and trial_is_prime(p + 2)]
    assert len(twins) == 341
    for p in twins:
        assert factorize(p * (p + 2)) == {p: 1, p + 2: 1}, p
        assert factorize(p * p * (p + 2) ** 3) == {p: 2, p + 2: 3}, p


def test_sum_of_two_squares_vs_brute():
    for n in range(0, 2000):
        brute = any(
            is_square(n - x * x) for x in range(0, isqrt(n) + 1)
        )
        if n:
            assert factored_sum_of_two_squares(factorize(n)) == brute, n
        dec = two_square_decompositions(n)[:1]
        assert bool(dec) == brute
        for x, y in dec:
            assert x * x + y * y == n and x <= y


def test_two_square_decompositions_vs_pair_enumeration():
    N = 2 * 10**5
    oracle = {}
    for x in range(isqrt(N // 2) + 1):
        for y in range(x, isqrt(N - 1 - x * x) + 1):
            oracle.setdefault(x * x + y * y, []).append((x, y))
    for n in range(-5, N):
        assert two_square_decompositions(n) == oracle.get(n, []), n
    assert two_square_decompositions(0) == [(0, 0)] and two_square_decompositions(-1)[:1] == []


def test_prime_two_squares_for_every_prime_1_mod_4_below_10_6():
    N = 10**6
    sieve = bytearray([1]) * N
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, N, p)))
    primes = [p for p in range(5, N, 4) if sieve[p]]
    assert len(primes) == 39175
    for p in primes:
        x, y = _prime_two_squares(p)
        assert 0 < x < y and x * x + y * y == p, p


def test_xgcd():
    rng = Random(62)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b) >= 0
        assert a * x + b * y == g


def test_is_square_edges():
    assert is_square(0) and is_square(1) and is_square(144)
    assert not is_square(-4) and not is_square(2)
