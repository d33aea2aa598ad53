"""Elementary number-theory helpers against brute-force oracles."""

from math import gcd, isqrt
from random import Random

import pytest

from gmlattice.arith import (
    factored_sum_of_two_squares,
    factorize,
    is_prime,
    is_square,
    two_square_decomposition,
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


def test_sum_of_two_squares_vs_brute():
    for n in range(0, 2000):
        brute = any(
            is_square(n - x * x) for x in range(0, isqrt(n) + 1)
        )
        if n:
            assert factored_sum_of_two_squares(factorize(n)) == brute, n
        dec = two_square_decomposition(n)
        assert (dec is not None) == brute
        if dec:
            x, y = dec
            assert x * x + y * y == n and x <= y


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
