"""Command-line interface: commands, exit codes, output formats."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from gmlattice.cli import main
from gmlattice import cli, oracle, pell


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_d50(capsys):
    code, out, _ = run(capsys, "classify", "50", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["star2"] is True
    assert data["star3"] is None
    assert data["divisor"] == "Dprime_union"


def test_classify_human_d10(capsys):
    code, out, _ = run(capsys, "classify", "10")
    assert code == 0
    assert "(n, a) = (2, 1)" in out
    assert "w = (0, 1, 1)" in out


def test_classify_inadmissible_exit_codes(capsys):
    code, out, _ = run(capsys, "classify", "6")
    assert code == 0
    assert "inadmissible" in out
    code, _, _ = run(capsys, "classify", "6", "--strict")
    assert code == 2
    code, _, _ = run(capsys, "classify", "12", "--strict")
    assert code == 0


def test_classify_malformed_input(capsys):
    code, _, err = run(capsys, "classify", "abc")
    assert code == 1
    assert "error" in err.lower()


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)


@needs_digit_limit
def test_classify_json_prints_huge_pell_solution_exactly(capsys):
    # n has about 31000 digits, past the default 4300-digit conversion limit
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "classify", "2000000018", "--json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # restored after main
    sys.set_int_max_str_digits(0)
    try:
        data = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    n, a, d = data["star3"]["n"], data["star3"]["a"], data["d"]
    assert a * a * d == 2 * n * n + 2
    assert n.bit_length() > 100_000


@needs_digit_limit
def test_classify_rejects_argument_past_digit_limit(capsys):
    code, _, err = run(capsys, "classify", "1" * 5000)
    assert code == 1
    assert err.startswith("error:")


@needs_digit_limit
@pytest.mark.parametrize("digits, code", [(5000, 1), (4300, 0)])
def test_lattice_reads_its_gram_file_under_the_digit_limit(capsys, tmp_path, digits, code):
    # a Gram entry past the limit is refused at once, as an argument is,
    # where reading it unlimited would take time quadratic in its length
    gram = tmp_path / "big.gram"
    gram.write_text("1\n" + "1" * digits + "\n")
    got, out, err = run(capsys, "lattice", "det", str(gram))
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: malformed Gram text: ") and err.count("\n") == 1
    else:
        assert out == "1" * digits + "\n"


@pytest.mark.parametrize("digits", [4300, 4301])  # either side of Python's default int-string limit
@pytest.mark.parametrize(
    "argv", [("classify",), ("witness", "k3"), ("witness", "twisted"), ("witness", "hilb2"), ("scan",)], ids="-".join
)
def test_a_refused_huge_argument_is_not_echoed_in_full(capsys, argv, digits):
    code, out, err = run(capsys, *argv, "1" + "0" * (digits - 1))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
    assert f"1000000000...0000000000 ({digits} digits)" in err
    if digits == 4300:
        assert "D_MAX = 100000000000" in err


def test_classify_past_size_limit_fails_at_once(capsys):
    code, out, err = run(capsys, "classify", "200000000000000000018")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "D_MAX" in err


def test_scan_past_size_limit_fails_at_once(capsys):
    code, out, err = run(capsys, "scan", "100000000001")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "D_MAX" in err


# sha256 of the stdout of each command, pinned so that a refactor which
# changes a single byte of the published output fails here
STABLE_OUTPUTS = {
    ("scan", "1000", "--json"): "9fbdb3066bf310879654d20248d12672cdb7c6240fba38dca841d37dae086cc9",
    ("scan", "1000"): "0da0f11d6d1fe4de4fbaf4ca6a40e28b8504c5627fdab51c98eab14860bd28fc",
    ("scan", "20000"): "5f1555c22a3140a5d34d77c5ff8af3233ee68b9b58cf58c7e313dc74dd41ba33",
    ("verify-paper",): "0c196779073c608c7cd54a55ab91b2b46ef8646fb87b5fc5da1c29e23163e396",
    # the slowest known d below D_MAX for the rank-3 K3 plane and the twisted pair
    ("witness", "k3", "99997120658"): "3c6d8a172f733e8cf0c1a290a85dc8f080525562049dab4c69963993dda159bb",
    ("witness", "k3", "99997120658", "--json"): "31efe33c08b7bf863ed07c2645dcfebfe4910b2189552793f686edc6803b039f",
    ("witness", "twisted", "99997120658"): "b8c008de64ac75813c2a9d3b71524f539459f23551090725ac5294ce7de3b2b0",
    ("witness", "twisted", "99997120658", "--json"): "36f36f6a54590cefc4b2979039f1351198bd7165cc66fbce051ebde65ef54b3d",
}


@pytest.mark.parametrize("argv", sorted(STABLE_OUTPUTS))
def test_output_is_byte_stable(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STABLE_OUTPUTS[argv]


def _lambda_gram_text():
    from gmlattice.lattice import format_gram_text, standard_lattice

    return format_gram_text(standard_lattice("Lambda"))


# (Gram text, a non-primitive basis) for the d = 12 labelling, Lambda and an
# even indefinite rank-4 lattice with d(L) = Z/2 + Z/216
STABLE_LATTICES = {
    "d12": ("3\n-2 0 1\n0 -2 1\n1 1 2\n", "2 0 2; 0 3 3"),
    "Lambda": (
        _lambda_gram_text(),
        "2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2; "
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 3 0 0 0",
    ),
    "rank4": ("4\n2 1 0 3\n1 -4 3 0\n0 3 6 1\n3 0 1 -2\n", "2 4 0 6; 1 -1 3 0; 0 0 4 2"),
}

# sha256 of `lattice <sub> --json`: snf prints the Smith transforms U and V,
# so a change to the elimination order shows here
STABLE_LATTICE_OUTPUTS = {
    ("d12", "snf"): "9c029d33760ac4e0bacbb1534096127ee15c85e5759093d682801906fd697615",
    ("d12", "disc-group"): "2f3060a94cbef69deaf24bb72bab02eb0a2e8a944644577395980c6f1ac5bcc4",
    ("d12", "saturate"): "f777a56e719047544c9b734b578521843ee843daab832c870661764f26f6b81b",
    ("d12", "complement"): "1b4be7bf8533e84cba64adb6de0034fd37bc9220e445d30d18cbd9f1ce08552c",
    ("Lambda", "snf"): "1e396b806384e4a8f1cbca17f8cf87efe32e205172e012e74c908e49d5af1ddd",
    ("Lambda", "disc-group"): "e8cb64d68cd7e446aa3c2a5969c4e0518b8087c9bca17105fa6b5158be66eacc",
    ("Lambda", "saturate"): "56e31021b145423ea23e36322355506ca1cff36f92252956bc155889e74e72c0",
    ("Lambda", "complement"): "85c49b02bfd0080e9a782c653b734061e70366dbb082196adaa4b3a79eb9bce8",
    ("rank4", "snf"): "afec18fe2e05b53556cfdcb22945ae1533697fa276f28ddb56738c5366511b8e",
    ("rank4", "disc-group"): "cc2cf406ae3942bed86c22a7c3671c5c75157875a846e42838c01414fb4c1b63",
    ("rank4", "saturate"): "6590724fe8bc5facdc48d1ae843e8c67716a2836198ca209fc57115d5d1941a8",
    ("rank4", "complement"): "ffab855319867a9e33b9c500365ecb50d08d5b3f8e679b8f45c163d3f2decc23",
}


@pytest.mark.parametrize("name,sub", sorted(STABLE_LATTICE_OUTPUTS))
def test_lattice_output_is_byte_stable(tmp_path, capsys, name, sub):
    text, basis = STABLE_LATTICES[name]
    f = tmp_path / f"{name}.gram"
    f.write_text(text)
    extra = ("--basis", basis) if sub in ("saturate", "complement") else ()
    code, out, _ = run(capsys, "lattice", sub, str(f), "--json", *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STABLE_LATTICE_OUTPUTS[(name, sub)]


# Gram files for OUTPUT_CONTRACT: the d = 12 labelling, a rank-3 lattice
# with a hyperbolic plane, an odd lattice the plane search and the
# discriminant group refuse, and a degenerate one the group refuses
CONTRACT_GRAMS = {
    "d12": STABLE_LATTICES["d12"][0],
    "plane": "3\n-2 0 1\n0 -2 0\n1 0 2\n",
    "odd": "2\n1 0\n0 1\n",
    "degenerate": "2\n2 2\n2 2\n",
}

# (argv, exit code) of every command that prints one result: each witness
# kind with and without a witness, and each lattice subcommand, with the
# hyperbolic search found, exhausted and refused, and the discriminant
# group refused
OUTPUT_CONTRACT = [
    (("classify", "10"), 0),
    (("classify", "6", "--strict"), 2),
    (("witness", "k3", "10"), 0),
    (("witness", "k3", "12"), 3),
    (("witness", "twisted", "16"), 0),
    (("witness", "twisted", "12"), 3),
    (("witness", "hilb2", "10"), 0),
    (("witness", "hilb2", "50"), 3),
    (("witness", "counterexample", "--n", "2"), 0),
    (("lattice", "det", "d12"), 0),
    (("lattice", "sig", "d12"), 0),
    (("lattice", "snf", "d12"), 0),
    (("lattice", "disc-group", "d12"), 0),
    (("lattice", "complement", "d12", "--basis", STABLE_LATTICES["d12"][1]), 0),
    (("lattice", "saturate", "d12", "--basis", STABLE_LATTICES["d12"][1]), 0),
    (("lattice", "hyperbolic", "plane", "--bound", "5"), 0),
    (("lattice", "hyperbolic", "d12", "--bound", "10"), 3),
    (("lattice", "hyperbolic", "odd", "--bound", "3"), 1),
    (("lattice", "disc-group", "odd"), 1),
    (("lattice", "disc-group", "degenerate"), 1),
]

# sha256 of the concatenated text stdout of the OUTPUT_CONTRACT runs that do
# not exit 1, in order
CONTRACT_TEXT_SHA256 = "b8d0d5394d2d754a5aec54f9b642975de736167b4e3a6a732a8fa58594d34bc0"


def _contract_argv(tmp_path, argv):
    if argv[0] != "lattice":
        return argv
    f = tmp_path / f"{argv[2]}.gram"
    f.write_text(CONTRACT_GRAMS[argv[2]])
    return argv[:2] + (str(f),) + argv[3:]


@pytest.mark.parametrize(
    "argv,want", OUTPUT_CONTRACT, ids=["-".join(argv[:3]) for argv, _ in OUTPUT_CONTRACT]
)
def test_json_run_prints_one_document(tmp_path, capsys, argv, want):
    argv = _contract_argv(tmp_path, argv)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == want
        if want == 1:
            assert out == "" and err.startswith("error: ")
    if want != 1:
        json.loads(out)  # raises unless stdout is exactly one JSON document


_D12_BASIS = ("--basis", STABLE_LATTICES["d12"][1])


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", kind, d, "--n", "3")
        for kind, d in (("hilb2", "10"), ("k3", "10"), ("twisted", "16"))
    ]
    + [
        ("lattice", sub, "d12", "--basis", "1 1 1")
        for sub in ("det", "sig", "snf", "disc-group", "hyperbolic")
    ]
    + [
        ("lattice", sub, "d12", *extra, "--bound", "5")
        for sub, extra in (
            ("det", ()),
            ("sig", ()),
            ("snf", ()),
            ("disc-group", ()),
            ("complement", _D12_BASIS),
            ("saturate", _D12_BASIS),
        )
    ],
    ids=lambda argv: "-".join(argv[:2] + argv[-2:-1]),
)
def test_an_option_the_subcommand_does_not_read_is_refused(tmp_path, capsys, argv):
    argv = _contract_argv(tmp_path, argv)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 1 and out == ""
        assert err == f"error: {argv[0]} {argv[1]} takes no {argv[-2]}\n"


def test_text_output_of_the_contract_is_byte_stable(tmp_path, capsys):
    outs = []
    for argv, want in OUTPUT_CONTRACT:
        if want != 1:
            code, out, _ = run(capsys, *_contract_argv(tmp_path, argv))
            assert code == want
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == CONTRACT_TEXT_SHA256


def test_scan_builds_witnesses_only_for_json(capsys, monkeypatch):
    calls = []
    real = cli.classify

    def recorded(d, with_witnesses=True):
        calls.append(with_witnesses)
        return real(d, with_witnesses=with_witnesses)

    monkeypatch.setattr(cli, "classify", recorded)
    for extra, want in (((), False), (("--filter", "star3"), False), (("--json",), True)):
        calls.clear()
        code, _, _ = run(capsys, "scan", "40", *extra)
        assert code == 0
        assert calls and set(calls) == {want}


def test_scan_star3_filter(capsys):
    code, out, _ = run(capsys, "scan", "50", "--filter", "star3")
    assert code == 0
    lines = out.strip().splitlines()
    ds = [int(row.split(",")[0]) for row in lines[1:]]
    assert ds == [2, 4, 10, 20, 26, 34]
    for needed in (2, 4, 10, 26):
        assert needed in ds
    assert 50 not in ds


def test_scan_twisted_filter(capsys):
    code, out, _ = run(capsys, "scan", "16", "--filter", "twisted")
    ds = [int(row.split(",")[0]) for row in out.strip().splitlines()[1:]]
    assert ds == [2, 4, 8, 10, 16]


def test_scan_star2_filter(capsys):
    code, out, _ = run(capsys, "scan", "8", "--filter", "star2")
    ds = [int(row.split(",")[0]) for row in out.strip().splitlines()[1:]]
    assert ds == [2, 4]


def test_scan_increasing_and_reproducible(capsys):
    code1, out1, _ = run(capsys, "scan", "120", "--json")
    code2, out2, _ = run(capsys, "scan", "120", "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    ds = [json.loads(line)["d"] for line in out1.strip().splitlines()]
    assert ds == sorted(ds)
    assert all(d % 8 in (0, 2, 4) for d in ds)


def test_scan_json_round_trip(capsys):
    code, out, _ = run(capsys, "scan", "1000", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == sum(1 for d in range(2, 1001) if d % 8 in (0, 2, 4))
    for line in lines:
        assert json.loads(line)["admissible"] is True


def test_witness_hilb2_transcript(capsys):
    code, out, _ = run(capsys, "witness", "hilb2", "10")
    assert code == 0
    assert "w = (0, 1, 1)" in out
    assert "lambda1.w = 1" in out
    assert "w.w = 0" in out


def test_witness_hilb2_solves_pell_once(capsys, monkeypatch):
    # counts the continued-fraction walks, each of one sqrt(m)
    calls = []
    walk = pell._half_period

    def counted(m, *start):
        calls.append(m)
        return walk(m, *start)

    monkeypatch.setattr(pell, "_half_period", counted)
    code, out, _ = run(capsys, "witness", "hilb2", "10")
    assert code == 0
    assert "(n, a) = (2, 1)" in out
    assert calls == [5]
    # 3 | 12 fails the K3 condition, which P_6(-1) needs: no walk at all
    calls.clear()
    code, out, _ = run(capsys, "witness", "hilb2", "12")
    assert code == 3
    assert "condition failed" in out
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [["classify", "10"], ["classify", "10", "--json"], ["witness", "hilb2", "10"]],
    ids=["classify", "classify-json", "witness-hilb2"],
)
def test_a_failed_re_check_exits_4_with_one_stderr_line(capsys, monkeypatch, argv):
    def broken(d, gram, sol):
        raise AssertionError(f"w is not isotropic for d = {d}")

    monkeypatch.setattr(oracle, "_hilb2_witness", broken)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INTERNAL == 4
    assert err == "error: internal check failed: w is not isotropic for d = 10\n"
    if "--json" in argv:
        assert out == ""


def test_witness_hilb2_condition_failed(capsys):
    code, out, _ = run(capsys, "witness", "hilb2", "50")
    assert code == 3
    assert "condition failed" in out


def test_witness_twisted(capsys):
    code, out, _ = run(capsys, "witness", "twisted", "16")
    assert code == 0
    assert "2*2^2 + 2*2^2 = 16" in out
    code, out, _ = run(capsys, "witness", "twisted", "12")
    assert code == 3
    assert "condition failed" in out


def test_witness_k3(capsys):
    code, out, _ = run(capsys, "witness", "k3", "10")
    assert code == 0
    assert "v.w = 1" in out
    assert "g.g = -10" in out
    code, out, _ = run(capsys, "witness", "k3", "12")
    assert code == 3
    assert "no hyperbolic plane because the K3 condition fails" in out


def test_witness_counterexample(capsys):
    code, out, _ = run(capsys, "witness", "counterexample", "--n", "2")
    assert code == 0
    assert "2x^2 + xy + 2y^2" in out
    assert "U-span ok" in out
    assert "does not represent 1" in out
    for argv in (("2",), ("2", "--n", "2"), ()):
        code, out, err = run(capsys, "witness", "counterexample", *argv)
        assert code == 1
        assert out == ""
        assert "--n" in err


def test_witness_missing_argument(capsys):
    code, _, err = run(capsys, "witness", "hilb2")
    assert code == 1


def test_witness_json_outputs(capsys):
    code, out, _ = run(capsys, "witness", "hilb2", "10", "--json")
    data = json.loads(out)
    assert data["w"] == [0, 1, 1]
    assert data["transcript"] == {"lambda1.w": 1, "lambda2.w": -2, "w.w": 0}
    code, out, _ = run(capsys, "witness", "counterexample", "--n", "2", "--json")
    data = json.loads(out)
    assert data["reduced_form"] == "2 1 2"
    assert data["represents_one"] is None
    code, out, _ = run(capsys, "witness", "twisted", "16", "--json")
    assert json.loads(out) == {"d": 16, "x": 2, "y": 2, "i": 1}
    code, out, _ = run(capsys, "witness", "k3", "10", "--json")
    assert out == (
        '{"d": 10, "status": "found", "u_basis": [[1, 1, 1], [0, 1, 1]], '
        '"complement_gen": [2, 5, 4], "gen_norm": -10}\n'
    )
    # a missing witness is one JSON object too, with the same exit code 3
    code, out, _ = run(capsys, "witness", "k3", "12", "--json")
    assert code == 3
    assert out == (
        '{"d": 12, "status": "proven-absent", "u_basis": null, '
        '"complement_gen": null, "gen_norm": null}\n'
    )
    assert out == json.dumps({"d": 12, **oracle.classify(12).witnesses["k3"]}) + "\n"
    for kind, d in (("twisted", "12"), ("hilb2", "50")):
        code, out, _ = run(capsys, "witness", kind, d, "--json")
        assert code == 3
        assert json.loads(out) == {"d": int(d), "status": "condition-failed"}


@pytest.mark.parametrize("kind", ["k3", "twisted", "hilb2"])
@pytest.mark.parametrize("d", ["5", "6", "0", "-2"])
def test_witness_refuses_an_inadmissible_discriminant(capsys, kind, d):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "witness", kind, d, *extra)
        assert code == 1
        assert out == ""
        assert err == f"error: d={d} is not an admissible discriminant\n"


@pytest.mark.parametrize("d", [8, 16])
def test_witness_k3_is_absent_when_8_divides_d(capsys, d):
    code, out, err = run(capsys, "witness", "k3", str(d))
    assert code == 3 and err == ""
    assert out == (
        f"no witness: d = {d} has no hyperbolic plane because the K3 condition "
        "fails (condition failed)\n"
    )
    code, out, err = run(capsys, "witness", "k3", str(d), "--json")
    assert code == 3 and err == ""
    assert json.loads(out) == {
        "d": d,
        "status": "proven-absent",
        "u_basis": None,
        "complement_gen": None,
        "gen_norm": None,
    }
    assert oracle.classify(d).star2 is False


def test_scan_into_a_closed_pipe_prints_no_traceback():
    # `gmlattice scan 20000 | head -1`: the reader takes one line and leaves
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gmlattice.cli", "scan", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"d,divisor,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_lattice_det(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("3\n-2 0 1\n0 -2 0\n1 0 2\n")
    code, out, _ = run(capsys, "lattice", "det", str(f))
    assert code == 0
    assert out.strip() == "10"


def test_lattice_hyperbolic(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("3\n-2 0 1\n0 -2 0\n1 0 2\n")
    code, out, _ = run(capsys, "lattice", "hyperbolic", str(f), "--bound", "5")
    assert code == 0
    assert "search bound: 5" in out
    code, out, _ = run(capsys, "lattice", "hyperbolic", str(f))
    assert code == 0
    assert "search bound: 20" in out
    assert "v.v = 0" in out and "w.w = 0" in out and "v.w = 1" in out


def test_lattice_hyperbolic_exhausted(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("3\n-2 0 1\n0 -2 1\n1 1 2\n")
    code, out, _ = run(capsys, "lattice", "hyperbolic", str(f), "--bound", "10")
    assert code == 3
    assert "bound exhausted" in out
    code, out, _ = run(capsys, "lattice", "hyperbolic", str(f), "--bound", "10", "--json")
    assert code == 3
    assert json.loads(out) == {"bound": 10, "status": "not-found-within-bound"}


def test_lattice_hyperbolic_box_past_the_limit(tmp_path, capsys):
    from gmlattice.lattice import format_gram_text, standard_lattice

    f = tmp_path / "lambda.gram"
    f.write_text(format_gram_text(standard_lattice("Lambda")))
    code, _, err = run(capsys, "lattice", "hyperbolic", str(f), "--bound", "1")
    assert code == 1
    assert err.startswith("error: ") and "HYPERBOLIC_BOX_MAX" in err


def test_lattice_disc_group(tmp_path, capsys):
    f = tmp_path / "d.gram"
    f.write_text("2\n-2 0\n0 -2\n")
    code, out, _ = run(capsys, "lattice", "disc-group", str(f))
    assert code == 0
    assert out.strip() == "Z/2 + Z/2, q = (3/2, 3/2)"
    code, out, _ = run(capsys, "lattice", "disc-group", str(f), "--json")
    data = json.loads(out)
    assert data["invariant_factors"] == [2, 2]
    assert data["qvalues"] == ["3/2 mod 2", "3/2 mod 2"]
    assert all(len(g) == 2 for g in data["generators"])


def test_scan_csv_flag_and_conflict(capsys):
    code, out, _ = run(capsys, "scan", "10", "--csv")
    assert code == 0 and out.startswith("d,")
    code, _, err = run(capsys, "scan", "10", "--csv", "--json")
    assert code == 1


def test_lattice_sig_json(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "lattice", "sig", str(f))
    assert code == 0 and out.strip() == "(1, 1, 0)"
    code, out, _ = run(capsys, "lattice", "sig", str(f), "--json")
    assert json.loads(out) == {"positive": 1, "negative": 1, "null": 0}


def test_lattice_snf(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("3\n-2 0 1\n0 -2 0\n1 0 2\n")
    code, out, _ = run(capsys, "lattice", "snf", str(f))
    assert code == 0
    assert out.strip() == "D = diag(1, 1, 10)"
    code, out, _ = run(capsys, "lattice", "snf", str(f), "--json")
    data = json.loads(out)
    assert data["diag"] == [1, 1, 10]


def test_lattice_complement_and_saturate(tmp_path, capsys):
    f = tmp_path / "f.gram"
    f.write_text("3\n-2 0 1\n0 -2 0\n1 0 2\n")
    code, out, _ = run(
        capsys, "lattice", "complement", str(f), "--basis", "1 1 1; 0 1 1"
    )
    assert code == 0
    assert "[[2, 5, 4]]" in out
    assert "det: -10" in out
    g = tmp_path / "i2.gram"
    g.write_text("2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "lattice", "saturate", str(g), "--basis", "2 0; 0 1")
    assert code == 0
    assert "index: 2" in out


def test_lattice_rejects_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.gram"
    bad.write_text("2\n1 2\n3 4\n")
    code, _, err = run(capsys, "lattice", "det", str(bad))
    assert code == 1
    assert "symmetric" in err
    code, _, err = run(capsys, "lattice", "det", str(tmp_path / "missing.gram"))
    assert code == 1
    # a Gram past the rank limit is refused before any elimination
    from gmlattice.cli import LATTICE_RANK_MAX
    from gmlattice.lattice import format_gram_text, standard_lattice

    for n, want in ((LATTICE_RANK_MAX, 0), (LATTICE_RANK_MAX + 1, 1)):
        big = tmp_path / f"i{n}.gram"
        big.write_text(format_gram_text(standard_lattice(f"I({n},0)")))
        code, out, err = run(capsys, "lattice", "det", str(big))
        assert code == want
        assert out.strip() == ("1" if want == 0 else "")
        assert ("LATTICE_RANK_MAX" in err) == (want == 1)


def test_verify_paper_list_and_run(capsys):
    code, out, _ = run(capsys, "verify-paper", "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 20
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "20/20 checks passed" in out
    assert "FAIL" not in out


def test_no_command_shows_help(capsys):
    code, out, _ = run(capsys)
    assert code == 1
    assert "classify" in out


def test_witness_k3_json_against_classify(capsys):
    # 8 does not divide d: classify's witnesses.k3 plus d; 8 | d: classify
    # has no k3 object and the witness is the proven-absent one
    absent = {"status": "proven-absent", "u_basis": None, "complement_gen": None, "gen_norm": None}
    for d in (d for d in range(2, 1001) if d % 8 in (0, 2, 4)):
        code, out, _ = run(capsys, "witness", "k3", str(d), "--json")
        _, cls, _ = run(capsys, "classify", str(d), "--json")
        got, k3 = json.loads(out), json.loads(cls)["witnesses"]["k3"]
        if d % 8:
            assert got == {"d": d, **k3}
        else:
            assert k3 is None and got == {"d": d, **absent}
        assert code == (0 if got["status"] == "found" else 3)
