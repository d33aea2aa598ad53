"""Seeded inputs, the timed op and the output check of each workload.

The library sees only the generated d values.  Every op is one
closed-loop call from a single caller: this is a batch and CLI tool with
no arrival schedule.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

import check

PELL_LARGE_P = (5 * 10**4, 2 * 10**5)


def render(rep) -> str:
    """What classify --json and scan --json print for one report."""
    return json.dumps(rep.to_dict())


def _admissible_draws(rng: random.Random, max_d: int, count: int) -> list[int]:
    pool = [d for d in range(2, max_d + 1) if d % 8 in (0, 2, 4)]
    return [rng.choice(pool) for _ in range(count)]


def _pell_large_draws(rng: random.Random, count: int) -> list[int]:
    """d = 2p for primes p = 1 (mod 4) drawn uniformly from PELL_LARGE_P."""
    lo, hi = PELL_LARGE_P
    sieve = bytearray([1]) * hi
    sieve[0] = sieve[1] = 0
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    pool = [2 * p for p in range(lo, hi) if sieve[p] and p % 4 == 1]
    return [rng.choice(pool) for _ in range(count)]


def _classify(gm, d, render_fn):
    # gm.classify is looked up on every call so that the traced run sees
    # the wrapper it rebinds
    return render_fn(gm.classify(d))


def _classify_flags(gm, d, render_fn):
    return render_fn(gm.classify(d, with_witnesses=False))


def _verify_paper(gm, _x, _render_fn):
    return gm.verify.run_checks()


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], list]
    op: Callable  # op(gm, x, render_fn) -> output, the timed region
    check: Callable  # check(x, output) -> (problems, K3 witness unresolved)
    tail_pct: float  # highest percentile with >= 10 samples beyond it at seed speed
    footprint_ops: int  # untimed ops, about a second at seed speed, behind peak_rss_mb


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-witness",
            lambda rng: _admissible_draws(rng, 4000, 8192),
            _classify,
            lambda d, out: check.check_rendered(d, out, True),
            99.0,
            200,
        ),
        Workload(
            "sweep-flags",
            lambda rng: _admissible_draws(rng, 200_000, 65536),
            _classify_flags,
            lambda d, out: check.check_rendered(d, out, False),
            99.9,
            3000,
        ),
        Workload(
            "pell-large",
            lambda rng: _pell_large_draws(rng, 8192),
            _classify,
            lambda d, out: check.check_rendered(d, out, True),
            99.0,
            80,
        ),
        Workload(
            "verify-paper",
            lambda rng: [None],
            _verify_paper,
            lambda _x, out: (check.check_verify(out), False),
            75.0,
            2,
        ),
    )
}
