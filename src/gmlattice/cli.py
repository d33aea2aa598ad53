"""Command-line front end: classification, scans, witnesses, lattice
operations and the built-in verification suite.

Exit codes: 0 success, 1 input error (an inadmissible d for a witness
included), 2 inadmissible discriminant under --strict, 3 witness not found
(with the reason: condition failed vs search bound exhausted), 4 an
internal re-check failed (a bug: one line "error: internal check failed:
..." on stderr, no traceback), 141 when the reader closes stdout early.
Text output prints the bound each search used, and every witness together
with a transcript that recomputes its defining identities.
Under --json, classify, witness and lattice print exactly one JSON document,
exit 3 included; a run that exits 1 prints nothing on stdout.
Integers are printed exactly, in decimal, however many digits they have
(the Pell solution of classify 2000000018 has about 31000).
"""

import argparse
import csv
import json
import os
import re
import sys

from .arith import two_square_decompositions
from .discriminant import discriminant_group
from .errors import DomainError
from .intmat import smith_normal_form_full
from .lattice import (
    GramLattice,
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
    _check_size,
    _k3_entry,
    _labelling_gram,
    _rank3_plane,
    admissible,
    classify,
    counterexample_family,
    hilb2_witness,
    labelling_det,
    twisted_witness,
)
from .pell import PellSolution
from .verify import check_list, run_checks

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INADMISSIBLE = 2
EXIT_NO_WITNESS = 3
EXIT_INTERNAL = 4

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
    l.add_argument("--bound", type=int, default=None, help="hyperbolic search box (default 20)")
    l.add_argument("--basis", default=None, help="sublattice basis, e.g. '1 1 1; 0 1 1'")
    l.add_argument("--json", action="store_true")

    v = sub.add_parser("verify-paper", help="run the named verification suite")
    v.add_argument("--list", action="store_true", dest="list_only", help="list checks without running")
    return p


# ---------------------------------------------------------------------------
# output: classify, witness and lattice return (exit code, JSON payload, text
# lines) and _emit prints it; scan and verify-paper print as they go


def _emit(args, result) -> int:
    """Print a command's result as one JSON document or as its text lines,
    and return its exit code.

    The lines are consumed only for text output, so a handler passes a
    generator where they hold huge integers: --json then never converts
    them to decimal for text it does not print.
    """
    code, payload, lines = result
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return code


def _rows(m) -> list:
    return [list(r) for r in m]


def _transcript(values: dict) -> str:
    return "transcript: " + ", ".join(f"{k} = {v}" for k, v in values.items())


def _plane_transcript(L, v, w) -> dict:
    return {"v.v": L.norm(v), "w.w": L.norm(w), "v.w": L.pairing(v, w)}


def _frm_bool(b) -> str:
    if b is None:
        return "n/a"
    return "yes" if b else "no"


def _classify_lines(rep):
    yield f"d: {rep.d}"
    yield f"admissible: {_frm_bool(rep.admissible)} (divisor {rep.divisor_label})"
    yield f"associated K3 surface (star2): {_frm_bool(rep.star2)}"
    yield f"associated twisted K3 surface (star2_twisted): {_frm_bool(rep.star2_twisted)}"
    if rep.star3 is not None:
        n, a = rep.star3.as_pair()
        yield f"Hilbert-square condition (star3): yes, (n, a) = ({n}, {a})"
    else:
        yield "Hilbert-square condition (star3): no"
    yield f"double-EPW isomorphism (Pell pair test): {_frm_bool(rep.dm_isomorphic)}"
    wt = rep.witnesses.get("twisted")
    if wt:
        x, y, i = wt["x"], wt["y"], wt["i"]
        yield f"twisted witness: 2*{x}^2 + 2*{y}^2 = {2*x*x + 2*y*y} = {i}^2 * {rep.d}"
    wh = rep.witnesses.get("hilb2")
    if wh:
        yield f"hilb2 witness: w = {tuple(wh['w'])} in gram {wh['gram']}"
    wk = rep.witnesses.get("k3")
    if wk:
        yield f"k3 hyperbolic plane: {wk['status']}"
        if wk["status"] == "found":
            yield (
                f"  U basis {tuple(tuple(v) for v in wk['u_basis'])}, "
                f"complement generator {tuple(wk['complement_gen'])} of norm {wk['gen_norm']}"
            )


def cmd_classify(args):
    rep = classify(args.d)
    code = EXIT_INADMISSIBLE if args.strict and not rep.admissible else EXIT_OK
    return code, rep.to_dict(), _classify_lines(rep)


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
        # a CSV row holds only the flags, so only --json builds the witnesses
        rep = classify(d, with_witnesses=args.json)
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


def _condition_failed(d, condition):
    return (
        EXIT_NO_WITNESS,
        {"d": d, "status": "condition-failed"},
        [f"no witness: the {condition} condition fails for d = {d} (condition failed)"],
    )


def _witness_hilb2(d):
    out = hilb2_witness(d)
    if out is None:
        return _condition_failed(d, "Pell")
    L, w = out
    l1w, l2w = L.pairing((1, 0, 0), w), L.pairing((0, 1, 0), w)
    t = {"lambda1.w": l1w, "lambda2.w": l2w, "w.w": L.norm(w)}
    # in both normal forms w = (., ., a) with lambda2.w = -n or +n
    n, a = PellSolution(abs(l2w), w[2], d // 2, -1).as_pair()
    gram = _rows(L.gram)

    def lines():
        yield f"d = {d}: Pell solution (n, a) = ({n}, {a}); a^2 d = {a*a*d} = 2n^2+2 = {2*n*n+2}"
        yield f"normal-form gram: {gram}"
        yield f"w = {w}"
        yield _transcript(t)
        yield f"det<lambda1, lambda2, w> = {labelling_det(L, w)} = 2*({l2w})^2 + 2"

    payload = {"d": d, "gram": gram, "w": list(w), "pell": {"n": n, "a": a}, "transcript": t}
    return EXIT_OK, payload, lines()


def _witness_twisted(d):
    out = twisted_witness(d)
    if out is None:
        return _condition_failed(d, "twisted")
    x, y, i = out
    return EXIT_OK, {"d": d, "x": x, "y": y, "i": i}, [
        f"d = {d}: (x, y, i) = ({x}, {y}, {i})",
        f"transcript: 2*{x}^2 + 2*{y}^2 = {2*x*x+2*y*y} = {i}^2 * {d} = {i*i*d}",
    ]


def _witness_k3(d):
    # classify's route: 8 | d has no normal form, and no labelling of it has
    # a plane ("Absent, 8 | d" in k3_witness)
    _check_size(d)
    gram = _labelling_gram(d) if d % 8 else None
    plane = _rank3_plane(gram, two_square_decompositions(d // 2)) if gram else None
    payload = {"d": d, **_k3_entry(plane)}
    if plane is None:
        return EXIT_NO_WITNESS, payload, [
            f"no witness: d = {d} has no hyperbolic plane because the K3 condition "
            "fails (condition failed)"
        ]
    v, w, g, gen_norm = plane
    return EXIT_OK, payload, [
        f"d = {d}: hyperbolic plane found in gram {_rows(gram)}",
        f"v = {v}, w = {w}",
        _transcript(_plane_transcript(GramLattice(gram), v, w)),
        f"complement generator g = {g} with g.g = {gen_norm}",
    ]


def _witness_counterexample(args):
    n = args.n
    if n is None or args.d is not None:
        raise DomainError("counterexample witness takes its family parameter from --n only")
    rep = counterexample_family(n)
    G, k1, k2 = rep.lattice, rep.kappa1, rep.kappa2
    if rep.represents_one:
        divisor = f"represents 1 at (x, y) = {rep.represents_one} -> in the norm-8 divisor"
    else:
        divisor = "does not represent 1 -> not in the norm-8 divisor"
    return EXIT_OK, rep.to_summary(), [
        f"family parameter n = {n}",
        f"transcript: kappa1.kappa1 = {G.norm(k1)}, kappa2.kappa2 = {G.norm(k2)}, "
        f"kappa1.kappa2 = {G.pairing(k1, k2)} (U-span {'ok' if rep.kappa_checks else 'FAILED'})",
        f"-Q/8 = {rep.form}, reduced: {rep.reduced_form}",
        divisor,
        f"labelling discs: min |disc| = {rep.min_abs_disc}, "
        f"all divisible by 8: {rep.all_discs_divisible_by_8}",
    ]


def cmd_witness(args):
    if args.kind == "counterexample":
        return _witness_counterexample(args)
    if args.n is not None:
        raise DomainError(f"witness {args.kind} takes no --n")
    if args.d is None:
        raise DomainError(f"witness {args.kind} needs a discriminant argument")
    if not admissible(args.d)[0]:
        raise DomainError(f"d={args.d} is not an admissible discriminant")
    witness = {"hilb2": _witness_hilb2, "twisted": _witness_twisted, "k3": _witness_k3}
    return witness[args.kind](args.d)


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


def _hyperbolic(L, bound):
    pair = find_hyperbolic_plane(L, bound)
    head = f"search bound: {bound}"
    if pair is None:
        return EXIT_NO_WITNESS, {"bound": bound, "status": "not-found-within-bound"}, [
            head,
            f"no hyperbolic plane found within bound {bound} (bound exhausted)",
        ]
    v, w = pair
    t = _plane_transcript(L, v, w)
    return EXIT_OK, {"v": list(v), "w": list(w), "transcript": t}, [
        head,
        f"v = {v}, w = {w}",
        _transcript(t),
    ]


def cmd_lattice(args):
    sub = args.subcommand
    if args.bound is not None and sub != "hyperbolic":
        raise DomainError(f"lattice {sub} takes no --bound")
    if args.basis is not None and sub not in ("complement", "saturate"):
        raise DomainError(f"lattice {sub} takes no --basis")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            L = parse_gram_text(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read {args.file}: {exc}") from None
    if L.rank > LATTICE_RANK_MAX:
        raise DomainError(
            f"Gram rank {L.rank} exceeds the supported limit LATTICE_RANK_MAX = {LATTICE_RANK_MAX}"
        )
    S = Sublattice(L, _parse_basis(args.basis, L.rank)) if args.basis else None
    # the input was read under the digit limit argv was parsed under; the
    # output has none
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if sub == "det":
        det = determinant(L)
        return EXIT_OK, det, [str(det)]
    if sub == "sig":
        pos, neg, null = signature(L)
        payload = {"positive": pos, "negative": neg, "null": null}
        return EXIT_OK, payload, [f"({pos}, {neg}, {null})"]
    if sub == "snf":
        D, U, V = smith_normal_form_full(L.gram)
        diag = [D[i][i] for i in range(L.rank)]
        return EXIT_OK, {"diag": diag, "U": _rows(U), "V": _rows(V)}, [f"D = diag{tuple(diag)}"]
    if sub == "disc-group":
        data = discriminant_group(L)
        qs = ", ".join(str(q) for q in data.qvalues)
        return EXIT_OK, data.to_dict(), [f"{data.group_name()}, q = ({qs})"]
    if sub == "hyperbolic":
        return _hyperbolic(L, 20 if args.bound is None else args.bound)
    if S is None:
        raise DomainError(f"lattice {sub} needs --basis")
    if sub == "complement":
        C = orthogonal_complement(L, S)
        G = C.gram()
        basis, gram, det = _rows(C.basis), _rows(G.gram), determinant(G)
        return EXIT_OK, {"basis": basis, "gram": gram, "det": det}, [
            f"complement basis: {basis}",
            f"induced gram: {gram}",
            f"det: {det}",
        ]
    sat, idx = saturate(L, S)
    basis = _rows(sat.basis)
    return EXIT_OK, {"basis": basis, "index": idx}, [
        f"saturation basis: {basis}",
        f"index: {idx}",
    ]


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


_STREAMS = {"scan": cmd_scan, "verify-paper": cmd_verify_paper}
_RESULTS = {"classify": cmd_classify, "witness": cmd_witness, "lattice": cmd_lattice}


def _error(message: str) -> None:
    """Print message as one "error:" line on stderr, with every integer of
    more than 40 digits cut to its first and last 10 digits and its digit
    count, so that a refused 4300-digit argument is not echoed in full."""
    short = re.sub(r"\d{41,}", lambda m: f"{m[0][:10]}...{m[0][-10:]} ({len(m[0])} digits)", message)
    print(f"error: {short}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CLIError as exc:
        _error(str(exc))
        return EXIT_INPUT
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    # Pell solutions can run past Python's int-to-str digit limit; print
    # them exactly.  The limit is lifted only after parsing, so a huge
    # argument is still refused as invalid input; lattice lifts it itself
    # once it has read its Gram file and --basis under it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None and args.command != "lattice":
        sys.set_int_max_str_digits(0)
    try:
        if args.command in _STREAMS:
            return _STREAMS[args.command](args)
        return _emit(args, _RESULTS[args.command](args))
    except (ValueError, ArithmeticError) as exc:  # LatticeError is a ValueError
        _error(str(exc))
        return EXIT_INPUT
    except AssertionError as exc:  # a witness or identity failed its re-check
        _error(f"internal check failed: {exc}")
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader closed stdout (`scan ... | head -1`): what is still buffered
        # goes to devnull, and the exit code is SIGPIPE's, 128 + 13
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
