"""Command-line front end: classification, scans, witnesses, lattice
operations and the built-in verification suite.

Exit codes: 0 success, 1 input error, 2 inadmissible discriminant under
--strict, 3 witness not found (with the reason: condition failed vs search
bound exhausted).  All searches print the bound they used; every witness is
printed together with a transcript that recomputes its defining identities.
Integers are printed exactly, in decimal, however many digits they have
(the Pell solution of classify 2000000018 has about 31000).
"""

import argparse
import csv
import json
import sys

from .discriminant import discriminant_group
from .errors import DomainError
from .intmat import smith_normal_form_full
from .lattice import (
    Sublattice,
    determinant,
    find_hyperbolic_plane,
    orthogonal_complement,
    parse_gram_text,
    saturate,
    signature,
)
from .oracle import (
    D_MAX,
    _k3_report_to_json,
    classify,
    counterexample_family,
    hilb2_witness,
    k3_witness,
    labelling_det,
    labelling_lattice,
    twisted_witness,
)
from .pell import PellSolution
from .verify import check_list, run_checks

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INADMISSIBLE = 2
EXIT_NO_WITNESS = 3

# largest Gram rank the lattice subcommands accept: at rank 64, snf and
# disc-group of a seeded even Gram with entries up to 10**3 take about
# 0.4 s each through the CLI, and disc-group takes 1.0 s at rank 80
# (Python 3.11, 2-vCPU host)
LATTICE_RANK_MAX = 64


class _CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gmlattice",
        description=(
            "Exact integer lattice criteria for Gushel-Mukai fourfold "
            "discriminants: K3 and twisted-K3 association, Hilbert-square "
            "birationality, and constructive witnesses."
        ),
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    c = sub.add_parser("classify", help="full report for one discriminant")
    c.add_argument("d", type=int, help="discriminant")
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.add_argument("--strict", action="store_true", help="exit 2 when d is inadmissible")

    s = sub.add_parser("scan", help="classify every admissible d up to a limit")
    s.add_argument("max_d", type=int)
    s.add_argument("--filter", choices=["star2", "twisted", "star3"], default=None)
    s.add_argument("--json", action="store_true", help="JSON-lines instead of CSV")
    s.add_argument("--csv", action="store_true", help="CSV output (the default)")

    w = sub.add_parser("witness", help="print one witness with a verification transcript")
    w.add_argument("kind", choices=["k3", "twisted", "hilb2", "counterexample"])
    w.add_argument("d", type=int, nargs="?", help="discriminant (counterexample takes --n instead)")
    w.add_argument("--n", type=int, default=None, help="family parameter for counterexample")
    w.add_argument("--json", action="store_true")

    l = sub.add_parser("lattice", help="exact operations on a Gram-matrix file")
    l.add_argument(
        "subcommand",
        choices=["det", "sig", "snf", "disc-group", "complement", "saturate", "hyperbolic"],
    )
    l.add_argument("file", help="text file: rank, then rank lines of integers")
    l.add_argument("--bound", type=int, default=20)
    l.add_argument("--basis", default=None, help="sublattice basis, e.g. '1 1 1; 0 1 1'")
    l.add_argument("--json", action="store_true")

    v = sub.add_parser("verify-paper", help="run the named verification suite")
    v.add_argument("--list", action="store_true", dest="list_only", help="list checks without running")
    return p


# ---------------------------------------------------------------------------
# rendering helpers


def _frm_bool(b) -> str:
    if b is None:
        return "n/a"
    return "yes" if b else "no"


def _render_classify(rep) -> str:
    lines = [f"d: {rep.d}"]
    lines.append(f"admissible: {_frm_bool(rep.admissible)} (divisor {rep.divisor_label})")
    lines.append(f"associated K3 surface (star2): {_frm_bool(rep.star2)}")
    lines.append(f"associated twisted K3 surface (star2_twisted): {_frm_bool(rep.star2_twisted)}")
    if rep.star3 is not None:
        n, a = rep.star3.as_pair()
        lines.append(f"Hilbert-square condition (star3): yes, (n, a) = ({n}, {a})")
    else:
        lines.append("Hilbert-square condition (star3): no")
    lines.append(f"double-EPW isomorphism (Pell pair test): {_frm_bool(rep.dm_isomorphic)}")
    wt = rep.witnesses.get("twisted")
    if wt:
        x, y, i = wt["x"], wt["y"], wt["i"]
        lines.append(
            f"twisted witness: 2*{x}^2 + 2*{y}^2 = {2*x*x + 2*y*y} = {i}^2 * {rep.d}"
        )
    wh = rep.witnesses.get("hilb2")
    if wh:
        lines.append(f"hilb2 witness: w = {tuple(wh['w'])} in gram {wh['gram']}")
    wk = rep.witnesses.get("k3")
    if wk:
        lines.append(f"k3 hyperbolic plane: {wk['status']}")
        if wk["status"] == "found":
            lines.append(
                f"  U basis {tuple(tuple(v) for v in wk['u_basis'])}, "
                f"complement generator {tuple(wk['complement_gen'])} of norm {wk['gen_norm']}"
            )
    return "\n".join(lines)


def cmd_classify(args) -> int:
    rep = classify(args.d)
    if args.json:
        print(json.dumps(rep.to_dict()))
    else:
        print(_render_classify(rep))
    if args.strict and not rep.admissible:
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _scan_keep(rep, flt) -> bool:
    if flt == "star2":
        return rep.star2
    if flt == "twisted":
        return rep.star2_twisted
    if flt == "star3":
        return rep.star3 is not None
    return True


def cmd_scan(args) -> int:
    if args.max_d < 2:
        raise DomainError("scan needs max_d >= 2")
    if args.max_d > D_MAX:
        raise DomainError(f"max_d = {args.max_d} exceeds the supported limit D_MAX = {D_MAX}")
    if args.json and args.csv:
        raise DomainError("choose one of --json and --csv")
    # each row is printed as soon as its d is classified, so memory stays flat
    if not args.json:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["d", "divisor", "star2", "star2_twisted", "star3_n", "star3_a", "dm_isomorphic"]
        )
    for d in range(2, args.max_d + 1):
        if d % 8 not in (0, 2, 4):
            continue
        rep = classify(d)
        if not _scan_keep(rep, args.filter):
            continue
        if args.json:
            print(json.dumps(rep.to_dict()))
        else:
            n, a = rep.star3.as_pair() if rep.star3 else ("", "")
            dm = "" if rep.dm_isomorphic is None else rep.dm_isomorphic
            writer.writerow([rep.d, rep.divisor_label, rep.star2, rep.star2_twisted, n, a, dm])
    return EXIT_OK


# ---------------------------------------------------------------------------
# witnesses


def _witness_hilb2(args) -> int:
    d = args.d
    out = hilb2_witness(d)
    if out is None:
        print(f"no witness: the Pell condition fails for d = {d} (condition failed)")
        return EXIT_NO_WITNESS
    L, w = out
    l1, l2 = (1, 0, 0), (0, 1, 0)
    # in both normal forms w = (., ., a) with lambda2.w = -n or +n
    sol = PellSolution(abs(L.pairing(l2, w)), w[2], d // 2, -1)
    n, a = sol.as_pair()
    if args.json:
        print(
            json.dumps(
                {
                    "d": d,
                    "gram": [list(r) for r in L.gram],
                    "w": list(w),
                    "pell": {"n": n, "a": a},
                    "transcript": {
                        "lambda1.w": L.pairing(l1, w),
                        "lambda2.w": L.pairing(l2, w),
                        "w.w": L.norm(w),
                    },
                }
            )
        )
        return EXIT_OK
    print(f"d = {d}: Pell solution (n, a) = ({n}, {a}); a^2 d = {a*a*d} = 2n^2+2 = {2*n*n+2}")
    print(f"normal-form gram: {list(list(r) for r in L.gram)}")
    print(f"w = {w}")
    print(f"transcript: lambda1.w = {L.pairing(l1, w)}, lambda2.w = {L.pairing(l2, w)}, w.w = {L.norm(w)}")
    other = L.pairing(l2, w)
    print(f"det<lambda1, lambda2, w> = {labelling_det(L, w)} = 2*({other})^2 + 2")
    return EXIT_OK


def _witness_twisted(args) -> int:
    d = args.d
    out = twisted_witness(d)
    if out is None:
        print(f"no witness: the twisted condition fails for d = {d} (condition failed)")
        return EXIT_NO_WITNESS
    x, y, i = out
    if args.json:
        print(json.dumps({"d": d, "x": x, "y": y, "i": i}))
        return EXIT_OK
    print(f"d = {d}: (x, y, i) = ({x}, {y}, {i})")
    print(f"transcript: 2*{x}^2 + 2*{y}^2 = {2*x*x+2*y*y} = {i}^2 * {d} = {i*i*d}")
    return EXIT_OK


def _witness_k3(args) -> int:
    d = args.d
    L = labelling_lattice(d)
    rep = k3_witness(L)
    if rep.status == "found":
        if args.json:
            print(json.dumps({"d": d, **_k3_report_to_json(rep)}))
            return EXIT_OK
        v, w = rep.u_basis
        print(f"d = {d}: hyperbolic plane found in gram {list(list(r) for r in L.gram)}")
        print(f"v = {v}, w = {w}")
        print(
            f"transcript: v.v = {L.norm(v)}, w.w = {L.norm(w)}, v.w = {L.pairing(v, w)}"
        )
        print(f"complement generator g = {rep.complement_gen} with g.g = {rep.gen_norm}")
        return EXIT_OK
    print(
        f"no witness: d = {d} has no hyperbolic plane because the K3 condition "
        "fails (condition failed)"
    )
    return EXIT_NO_WITNESS


def _witness_counterexample(args) -> int:
    n = args.n
    if n is None or args.d is not None:
        raise DomainError("counterexample witness takes its family parameter from --n only")
    rep = counterexample_family(n)
    if args.json:
        print(json.dumps(rep.to_summary()))
        return EXIT_OK
    G = rep.lattice
    k1, k2 = rep.kappa1, rep.kappa2
    print(f"family parameter n = {n}")
    print(
        "transcript: kappa1.kappa1 = %d, kappa2.kappa2 = %d, kappa1.kappa2 = %d (U-span %s)"
        % (G.norm(k1), G.norm(k2), G.pairing(k1, k2), "ok" if rep.kappa_checks else "FAILED")
    )
    print(f"-Q/8 = {rep.form}, reduced: {rep.reduced_form}")
    if rep.represents_one:
        print(f"represents 1 at (x, y) = {rep.represents_one} -> in the norm-8 divisor")
    else:
        print("does not represent 1 -> not in the norm-8 divisor")
    print(
        f"labelling discs: min |disc| = {rep.min_abs_disc}, "
        f"all divisible by 8: {rep.all_discs_divisible_by_8}"
    )
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.kind == "counterexample":
        return _witness_counterexample(args)
    if args.d is None:
        raise DomainError(f"witness {args.kind} needs a discriminant argument")
    if args.kind == "hilb2":
        return _witness_hilb2(args)
    if args.kind == "twisted":
        return _witness_twisted(args)
    return _witness_k3(args)


# ---------------------------------------------------------------------------
# lattice file operations


def _parse_basis(text: str, rank: int):
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vec = tuple(int(t) for t in chunk.replace(",", " ").split())
        except ValueError as exc:
            raise DomainError(f"malformed basis vector {chunk!r}: {exc}") from None
        if len(vec) != rank:
            raise DomainError(f"basis vector {vec} does not have rank {rank}")
        vectors.append(vec)
    if not vectors:
        raise DomainError("empty basis")
    return tuple(vectors)


def cmd_lattice(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            L = parse_gram_text(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read {args.file}: {exc}") from None
    if L.rank > LATTICE_RANK_MAX:
        raise DomainError(
            f"Gram rank {L.rank} exceeds the supported limit LATTICE_RANK_MAX = {LATTICE_RANK_MAX}"
        )
    sub = args.subcommand
    if sub == "det":
        print(determinant(L))
        return EXIT_OK
    if sub == "sig":
        pos, neg, null = signature(L)
        if args.json:
            print(json.dumps({"positive": pos, "negative": neg, "null": null}))
        else:
            print(f"({pos}, {neg}, {null})")
        return EXIT_OK
    if sub == "snf":
        D, U, V = smith_normal_form_full(L.gram)
        diag = [D[i][i] for i in range(L.rank)]
        if args.json:
            print(
                json.dumps(
                    {"diag": diag, "U": [list(r) for r in U], "V": [list(r) for r in V]}
                )
            )
        else:
            print(f"D = diag{tuple(diag)}")
        return EXIT_OK
    if sub == "disc-group":
        data = discriminant_group(L)
        if args.json:
            print(json.dumps(data.to_dict()))
        else:
            qs = ", ".join(str(q) for q in data.qvalues)
            print(f"{data.group_name()}, q = ({qs})")
        return EXIT_OK
    if sub in ("complement", "saturate"):
        if not args.basis:
            raise DomainError(f"lattice {sub} needs --basis")
        S = Sublattice(L, _parse_basis(args.basis, L.rank))
        if sub == "complement":
            C = orthogonal_complement(L, S)
            G = C.gram()
            if args.json:
                print(
                    json.dumps(
                        {
                            "basis": [list(v) for v in C.basis],
                            "gram": [list(r) for r in G.gram],
                            "det": determinant(G),
                        }
                    )
                )
            else:
                print(f"complement basis: {list(list(v) for v in C.basis)}")
                print(f"induced gram: {list(list(r) for r in G.gram)}")
                print(f"det: {determinant(G)}")
        else:
            sat, idx = saturate(L, S)
            if args.json:
                print(
                    json.dumps(
                        {"basis": [list(v) for v in sat.basis], "index": idx}
                    )
                )
            else:
                print(f"saturation basis: {list(list(v) for v in sat.basis)}")
                print(f"index: {idx}")
        return EXIT_OK
    # hyperbolic
    print(f"search bound: {args.bound}")
    pair = find_hyperbolic_plane(L, args.bound)
    if pair is None:
        print(f"no hyperbolic plane found within bound {args.bound} (bound exhausted)")
        return EXIT_NO_WITNESS
    v, w = pair
    if args.json:
        print(
            json.dumps(
                {
                    "v": list(v),
                    "w": list(w),
                    "transcript": {
                        "v.v": L.norm(v),
                        "w.w": L.norm(w),
                        "v.w": L.pairing(v, w),
                    },
                }
            )
        )
    else:
        print(f"v = {v}, w = {w}")
        print(f"transcript: v.v = {L.norm(v)}, w.w = {L.norm(w)}, v.w = {L.pairing(v, w)}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    if args.list_only:
        for name, anchor in check_list():
            print(f"{name}: {anchor}")
        return EXIT_OK
    results = run_checks()
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name} -- {r.anchor}")
        if not r.passed:
            failed += 1
            print(f"     {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


_DISPATCH = {
    "classify": cmd_classify,
    "scan": cmd_scan,
    "witness": cmd_witness,
    "lattice": cmd_lattice,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    # Pell solutions can run past Python's int-to-str digit limit; print
    # them exactly.  The limit is lifted only after parsing, so a huge
    # argument is still refused as invalid input.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, ArithmeticError) as exc:  # LatticeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
