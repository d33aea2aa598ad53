"""A seeded in-process fuzz of the CLI (classify, witness, scan, every lattice
subcommand, one verify-paper): each run exits 0-3 with no traceback, and
under --json, classify, witness and lattice print one JSON document on exit
0 or 3 and nothing on exit 1.

Run: python tests/sweeps/cli_fuzz.py [rounds scans grams]
(default 300 20 600, which make 1521 runs)
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from random import Random

from gmlattice.cli import main as cli_main
from gmlattice.oracle import D_MAX


def main(rounds=300, scans=20, grams=600):
    rng = Random(21)
    # 4300 digits is the longest argument int() reads at Python's default
    # limit, 4301 the first refused; written as strings, since str() of such
    # an int raises at that limit
    edges = [0, 1, -1, D_MAX - 1, D_MAX, D_MAX + 1, D_MAX + 2, 10**40, '1' + '0' * 4299, '1' + '0' * 4300]
    def d():
        return rng.choice(edges + [rng.randint(-10**7, 10**7)] * 6)
    def gram():
        n = rng.randint(0, 5)
        g = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        kind = rng.choice(['even', 'even', 'odd', 'degenerate', 'asymmetric'])
        for i in range(n):
            for j in range(i):
                if kind != 'asymmetric':
                    g[i][j] = g[j][i]
            if kind != 'odd':
                g[i][i] -= g[i][i] % 2
        if kind == 'degenerate' and n:
            k = rng.randrange(n)
            for i in range(n):
                g[i][k] = g[i][0]
            g[k] = list(g[0])
        return n, g
    def basis(n):
        size = lambda: rng.choice([n, n, n, n + 1])
        return '; '.join(' '.join(str(rng.randint(-3, 3)) for _ in range(size())) for _ in range(rng.randint(1, max(n, 1))))
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for _ in range(rounds):
            runs.append(['classify', str(d())] + rng.choice([[], ['--json'], ['--strict']]))
            runs.append(['witness', rng.choice(['k3', 'twisted', 'hilb2']), str(d())] + rng.choice([[], ['--json']]))
            runs.append(['witness', 'counterexample', '--n', str(rng.randint(-3, 300))] + rng.choice([[], ['--json']]))
        runs.append(['verify-paper'])
        for _ in range(scans):
            runs.append(['scan', str(rng.randint(-2, 300))] + rng.choice([[], ['--json'], ['--csv'], ['--filter', 'star3']]))
        for t in range(grams):
            n, g = gram()
            path = os.path.join(tmp, f'{t}.gram')
            with open(path, 'w') as f:
                f.write(f'{n}\n' + ''.join(' '.join(map(str, row)) + '\n' for row in g))
            sub = rng.choice(['det', 'sig', 'snf', 'disc-group', 'complement', 'saturate', 'hyperbolic'])
            extra = []
            if sub in ('complement', 'saturate') or rng.random() < 0.1:
                extra += ['--basis', basis(n)]
            if sub == 'hyperbolic' or rng.random() < 0.1:
                extra += ['--bound', str(rng.randint(-1, 5))]
            runs.append(['lattice', sub, path] + extra + rng.choice([[], ['--json']]))
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            if '--json' in argv and argv[0] != 'scan':
                if code in (0, 3):
                    json.loads(out.getvalue())  # exactly one document: trailing text raises
                elif code == 1:
                    assert out.getvalue() == '', (argv, out.getvalue()[:200])
    print(len(runs), 'runs')


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
