"""Every property sweep under tests/sweeps at a small size, and the layout
that has CI run each of them at its full size.

Each sweep is a file with a main(...) whose defaults are the sizes CI runs
(.github/workflows/tests.yml); here each runs at a size chosen by explicit
arguments, and prints the line CI would print for that size.
"""

import ast
import re
from pathlib import Path

import pytest

from sweeps import (
    block_split,
    byte_identity,
    cli_fuzz,
    cofactor_det,
    half_period,
    p2d5_gates,
    pell_pm1,
    prime_1mod4,
    rank3_partner,
    root_walks,
    two_squares,
    two_squares_scan,
)

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = sorted((ROOT / "tests" / "sweeps").glob("*.py"))
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


CASES = [
    (cofactor_det, (2000,), "568 singular of 2000"),
    (block_split, (300,), "225 of 300 sums went through the block split"),
    (two_squares, (0, 1 << 17), "51777 pairs for n in [0, 131072]"),
    # the same 50 n in [10^9, 5*10^10] the x-scan was once checked on
    (two_squares_scan, (50, 10**9), "13 of 50 are sums of two squares"),
    (p2d5_gates, (50_000,), None),
    (rank3_partner, (20_000,), "1631 rank-3 partners equal the hyperbolic_partner route"),
    (half_period, (5000,), "51948 half-period terms equal the full walk, and 3267 of (1 + sqrt(m)) / 2"),
    # c^2 < m and c^2 >= m alike; the scan where the unit bound is at most 300
    (root_walks, (600, 40, 300, (46000, 25034)), "46000 pairs decided, 25034 against the n-scan"),
    (
        pell_pm1,
        (5000,),
        "690 of 4929 non-square m solve P_m(-1), with no separate parity walk, and 124 of them P_m(5), read off that walk",
    ),
    (
        prime_1mod4,
        (300, 100),
        "300 forms, 30 with no prime 1 (mod 4); 93 definite rank-4 draws, each found",
    ),
    (cli_fuzz, (100, 10, 200), "511 runs"),
    # every entry, at the size CI runs
    (byte_identity, (), "6 outputs byte-identical"),
]


@pytest.mark.parametrize("sweep, args, line", CASES, ids=[c[0].__name__.rpartition(".")[2] for c in CASES])
def test_sweep_at_a_small_size(capsys, sweep, args, line):
    sweep.main(*args)
    assert capsys.readouterr().out == ("" if line is None else line + "\n")


def test_ci_runs_every_sweep_file_and_holds_no_inline_check():
    # each sweep runs under a timeout, and under python -O, which strips
    # assert statements, only if it holds none
    for path in SWEEPS:
        name = f"tests/sweeps/{path.name}"
        assert re.search(rf"^\s+(run: )?timeout \d+ python (-O )?{re.escape(name)}\b", WORKFLOW, re.M), name
        if any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(path.read_text()))):
            assert f"-O {name}" not in WORKFLOW, name
    # an inline program may write data, but a check of the package that
    # spans lines belongs in a sweep file that tier 1 also runs
    programs = re.findall(r'python -c "(.*?)"', WORKFLOW, re.S)
    assert programs
    for program in programs:
        assert "\n" not in program or "gmlattice" not in program, program[:200]
