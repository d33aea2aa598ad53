"""gmlattice benchmark: seeded workloads against the public API.

    python3 perfbench/run.py --workload sweep-witness --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Every op's output is checked; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  ``--workload all`` runs every workload in turn, and
``--write-spec`` writes BENCHMARK.json from spec.py.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9  # fresh interpreters per untraced run; setup_s is their median
WORKER_TIMEOUT_S = 150  # leaves the whole run inside 180 s if an op hangs


class BenchError(Exception):
    pass


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_lines": src_lines,
    }


def _worker(workload, seed, seconds, mode, spans_path=None) -> tuple[float, dict]:
    """Start one workload process; return (monotonic start stamp, its record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace, spans_path=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, record of everything else)."""
    if trace:
        _, rec = _worker(workload, seed, seconds, "trace", spans_path)
        units = {n: u for n, u, _ in spec.per_layer()}
        metrics = {n: _metric(v, units[n]) for n, v in rec.pop("layers").items()}
    else:
        setups, raw_setups = [], []
        for mode in ["footprint"] + ["setup"] * (SETUP_REPEATS - 2) + ["measure"]:
            started, rec = _worker(workload, seed, seconds, mode)
            raw_setups.append(rec["ready"] - started)
            setups.append(raw_setups[-1] * rec["setup_scale"])
            if mode == "footprint":
                peak_rss_mb = rec["peak_rss_mb"]
        lat = rec["latency"]
        values = {
            "throughput_ops": lat["ops"] / lat["busy_s"],
            "latency_p50_ms": lat["p50_s"] * 1e3,
            "latency_tail_ms": lat["tail_s"] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - rec["failed"] / lat["ops"],
        }
        metrics = {n: _metric(values[n], u) for n, u, _, _ in spec.END_TO_END}
        rec["setup_samples_s"] = setups
        rec["raw_setup_samples_s"] = raw_setups
    attempted = rec["latency"]["ops"]
    st = rec["self_test"]
    correct = rec["failed"] == 0 and not st["missed"]
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               failed_frac=rec["failed"] / attempted, env=_environment())
    result = {"correct": correct, "attempted": attempted, "failed": rec["failed"], "metrics": metrics}
    return result, rec


def _print_human(result, rec) -> None:
    lat = rec["latency"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} ops={lat['ops']} "
          f"failed_frac={rec['failed_frac']:.6g} tail=p{lat['tail_pct']:.4g} "
          f"({lat['tail_beyond']} samples beyond) k3_unresolved={rec['k3_unresolved']} "
          f"self_test={rec['self_test']['applied'] - len(rec['self_test']['missed'])}/{rec['self_test']['applied']} caught")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for msg in rec.get("failure_examples", []):
        print(f"! {msg}")
    print(json.dumps({k: v for k, v in rec.items() if k not in ("ready", "failure_examples")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*spec.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the spans of the traced run to this file")
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "gmlattice" / "__init__.py").is_file():
        print(f"error: no gmlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, rec = run_workload(name, args.seed, args.seconds, args.trace, args.spans)
            _print_human(result, rec)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
