"""classify's JSON output is byte-identical to the pinned sha256 of each entry.

Hash convention: each json.dumps(classify(d).to_dict()) is encoded as
UTF-8, and the encodings are concatenated in the order of d with no
separator; joining them with "\\n" gives other hashes.  A change that
alters an output on purpose edits the entry here and names it.

Run: python -O tests/sweeps/byte_identity.py
"""

import hashlib
import json
import sys
from math import isqrt
from random import Random

from gmlattice import classify
from gmlattice.arith import is_prime


def two_p(lo, hi):
    """Every d = 2p, in increasing order, for the primes p = 1 (mod 4) in
    [lo, hi), by a sieve."""
    sieve = bytearray([1]) * hi
    for p in range(2, isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return [2 * p for p in range(lo + (1 - lo) % 4, hi, 4) if sieve[p]]


def two_p_draws():
    """The distinct d = 2p, in increasing order, of 8192 draws by Random(1)
    from the primes p = 1 (mod 4) in [5*10^4, 2*10^5)."""
    pool = two_p(50_000, 200_000)
    rng = Random(1)
    return sorted({rng.choice(pool) for _ in range(8192)})


def two_p_sample():
    """400 distinct d = 2p, in increasing order, sampled by Random(7) from
    the primes p = 1 (mod 4) in [10^6, 10^7): most half periods of sqrt(p)
    there are longer than one leaf of pell._continuant."""
    return sorted(Random(7).sample(two_p(10**6, 10**7), 400))


def five_mod_8_sample():
    """400 distinct d = 2p, in increasing order, drawn by Random(8) from
    the primes p = 5 (mod 8) in [10^8, 10^9): negative_pell walks
    (1 + sqrt(p)) / 2 for each, and about two thirds of the solutions are
    the cube of its least unit."""
    rng, ps = Random(8), set()
    while len(ps) < 400:
        p = rng.randrange(10**8 + 5, 10**9, 8)
        if is_prime(p):
            ps.add(p)
    return sorted(2 * p for p in ps)


# name: (the d in order, classify's keyword arguments, sha256)
TABLE = {
    "classify d in [-3, 4*10^4)": (
        lambda: range(-3, 40_000),
        {},
        "f4adb818115f6d46bad0359269acf7245b1ca9b1a178b4a5a189e97b9c03c62e",
    ),
    "classify d in [-3, 4*10^4) with_witnesses=False": (
        lambda: range(-3, 40_000),
        {"with_witnesses": False},
        "b075abca479645eba495f4cd562757c3bf37420b7788f1fba23bcb4cd8f6760e",
    ),
    "classify the 4604 distinct d = 2p": (
        two_p_draws,
        {},
        "b5b881100f25dc654f5f28b1a9971f2fdfaecf64eabc2e9fd2d1d6241e148813",
    ),
    "classify 400 d = 2p, p = 1 (mod 4) prime in [10^6, 10^7), Random(7)": (
        two_p_sample,
        {},
        "f9000d3296b72317809ce7c3d61c83476f190ddcc24d128cd4494b8559249881",
    ),
    "classify 400 d = 2p, p = 5 (mod 8) prime in [10^8, 10^9), Random(8)": (
        five_mod_8_sample,
        {},
        "aa9bbb608085a2d384dc890691f4db3eedb23cc8d50674b34e937f99482793d9",
    ),
    "classify d = 99999999914 = 2p near D_MAX, p = 5 (mod 8), its unit cubed": (
        lambda: [99999999914],
        {},
        "205a7fcf4c60410b224705af374d955f8a3a7532cc2f83fbdc58892a71c5c58c",
    ),
}


def digest(name):
    ds, kwargs, _ = TABLE[name]
    h = hashlib.sha256()
    # the larger solutions pass the int-to-str digit limit of Python 3.11+
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for d in ds():
            h.update(json.dumps(classify(d, **kwargs).to_dict()).encode())
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return h.hexdigest()


def main():
    bad = [name for name, (_, _, sha256) in TABLE.items() if digest(name) != sha256]
    if bad:
        raise AssertionError(f"outputs changed: {bad}")
    print(len(TABLE), "outputs byte-identical")


if __name__ == "__main__":
    main()
