"""Names, units and bounds of the benchmark's workloads and metrics.

``python3 perfbench/run.py --write-spec`` renders this module into the
repository's ``BENCHMARK.json``, so the file and the code cannot drift.
"""

RUN_SECONDS = 25

WORKLOADS = {
    "sweep-witness": "classify with witnesses plus JSON render over admissible d <= 4000, the scan --json path; "
    "the hyperbolic-plane box search dominates",
    "sweep-flags": "flags-only classify plus render over admissible d <= 2e5: many short Pell and "
    "factorization calls, no lattice work",
    "pell-large": "classify with witnesses plus render of d = 2p, p prime 1 mod 4: every op solves "
    "P_{d/2}(-1) and P_{2d}(5) with long periods and big integers",
    "verify-paper": "one full verify-paper pass of the 20 named checks: the only workload that runs "
    "intmat, discriminant and the rank-22/24 lattice code",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("throughput_ops", "1/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.01),
]

# Functions wrapped by the traced run, as "<module>.<function>" under the
# gmlattice package.  "cli.render" is the benchmark's own JSON render step,
# json.dumps(rep.to_dict()), exactly what classify --json and scan --json print.
TRACED_FUNCTIONS = [
    "arith.factorize",
    "arith.two_square_decomposition",
    "pell.cf_sqrt",
    "pell.negative_pell",
    "pell.pell_unit",
    "pell.pell_general",
    "forms.reduce_form",
    "forms.find_prime_1mod4",
    "oracle.classify",
    "oracle.cond_star3",
    "oracle.dm_isomorphism_check",
    "oracle.twisted_witness",
    "oracle.hilb2_witness",
    "oracle.k3_witness",
    "lattice.find_hyperbolic_plane",
    "lattice.orthogonal_complement",
    "lattice.saturate",
    "lattice.signature",
    "lattice.is_isometric_small",
    "intmat.smith_normal_form_full",
    "intmat.charpoly",
    "intmat.bareiss_det",
    "discriminant.discriminant_group",
    "discriminant.glue_extension_check",
    "verify.run_checks",
    "cli.render",
]

DERIVED = [
    ("pell.cf_sqrt.period_terms", "count", "lower"),
    ("pell.negative_pell.calls_per_op", "count/op", "lower"),
    ("arith.factorize.calls_per_op", "count/op", "lower"),
    ("oracle.k3_witness.found_ratio", "frac", "higher"),
    ("oracle.k3_witness.unresolved", "count", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("traced_ops", "count", "higher"),
]


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for fn in TRACED_FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_ms", "ms", "lower"))
        out.append((f"{fn}.share", "frac", "lower"))
    return out + DERIVED


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }
