"""One workload process: import, generate inputs, warm up, then time ops.

Started by run.py.  Prints one JSON line on stdout.  ``ready`` is the
CLOCK_MONOTONIC stamp taken just before the timed loop starts, which run.py
subtracts from the stamp it took before starting this interpreter.
"""

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from itertools import accumulate
from pathlib import Path

import check
import spans
from spec import TRACED_FUNCTIONS
from workloads import WORKLOADS, render

ROOT = Path(__file__).resolve().parent.parent
WARMUP_D = 10  # every field of the report is set for d = 10
PROBE_NOMINAL_S = 0.0003  # probe time at the reference speed that times are scaled to
PROBE_SHARE = 0.03  # share of a measured run's wall time spent on speed probes
PROBE_HALF_WINDOW = 20  # probes on either side of an op that gauge its speed
SETUP_PROBES = 25  # speed probes that gauge the machine right after set-up


def _mix(a, b):
    return (a * b + 1) % 1000003


def _speed_probe() -> float:
    """Seconds taken by fixed pure-Python work (calls, tuples, dict stores,
    modulo): a gauge of how fast this shared machine runs right now."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(600):
        t = (i, i + 1, _mix(i, i + 3))
        table[t[2] % 97] = t
        acc += len(table) + t[0]
    return time.perf_counter() - t0


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import gmlattice
    import gmlattice.verify  # noqa: F401  (the verify-paper op reads gm.verify)

    if not Path(gmlattice.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"gmlattice imported from {gmlattice.__file__}, not from {ROOT / 'src'}")
    return gmlattice


class _Tally:
    """Latencies, failures and unresolved K3 witnesses of a series of ops."""

    def __init__(self):
        self.lat, self.failed, self.examples, self.unresolved = [], 0, [], 0

    def timed(self, wl, x, fn, *args):
        """Time fn(*args) as one op, then check its output outside the timer."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a raising op is a failure, not an abort
            self.lat.append(time.perf_counter() - t0)
            problems, unresolved = [f"x={x}: raised {type(exc).__name__}: {exc}"], False
        else:
            self.lat.append(time.perf_counter() - t0)
            try:
                problems, unresolved = wl.check(x, out)
            except Exception as exc:  # output of an unexpected shape
                problems, unresolved = [f"x={x}: check raised {type(exc).__name__}: {exc}"], False
        if problems:
            self.failed += 1
            self.examples.extend(problems[: 5 - len(self.examples)])
        self.unresolved += unresolved


def _measure(wl, gm, inputs, stop) -> tuple[_Tally, list[float], list[float]]:
    """Closed loop: ops back to back until the monotonic clock passes stop.
    Between ops, speed probes run until they have taken PROBE_SHARE of the
    time so far: about one every 10 ms between short ops, a burst around a
    long one.

    Returns the tally, each op's latency scaled to the nominal probe speed
    by the mean of the 2 * PROBE_HALF_WINDOW probes around it, and the
    probe times.
    """
    tally, probes, op_probe = _Tally(), [], []
    i, probe_s, start = 0, 0.0, time.monotonic()
    while (now := time.monotonic()) < stop:
        while probe_s < PROBE_SHARE * (now - start):
            probes.append(_speed_probe())
            probe_s += probes[-1]
        x = inputs[i % len(inputs)]
        tally.timed(wl, x, wl.op, gm, x, render)
        op_probe.append(len(probes))  # probes taken before this op
        i += 1
    cum, k = [0.0, *accumulate(probes)], PROBE_HALF_WINDOW
    scaled = []
    for lat, j in zip(tally.lat, op_probe):
        lo, hi = max(0, j - k), min(len(probes), j + k)
        scaled.append(lat * PROBE_NOMINAL_S * (hi - lo) / (cum[hi] - cum[lo]))
    return tally, scaled, probes


def _measure_traced(wl, gm, inputs, stop, tracer, patches) -> tuple[_Tally, _Tally]:
    """Each op runs twice, untraced and then traced, so that machine noise
    hits both alike; wrappers are installed only around the traced run."""
    plain, traced = _Tally(), _Tally()
    traced_render = tracer.wrap("cli.render", render)
    i = 0
    while time.monotonic() < stop:
        x = inputs[i % len(inputs)]
        plain.timed(wl, x, wl.op, gm, x, render)
        tracer.op_id = i
        spans.apply(patches)
        try:
            traced.timed(wl, x, tracer.call, "op", wl.op, gm, x, traced_render)
        finally:
            spans.restore(patches)
        i += 1
    return plain, traced


def _percentile(s, pct) -> tuple[float, int]:
    """Smoothed nearest-rank percentile of the sorted list s, and the number
    of samples beyond it.

    Each d has its own cost, so op times form clusters, and a single order
    statistic jumps between clusters from seed to seed.  So the value is the
    mean of the order statistics within a tenth of the beyond-count of the
    rank on either side: the 45th to 55th percentile for the median.
    """
    n = len(s)
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    k = beyond // 10
    return statistics.fmean(s[max(0, rank - 1 - k) : rank + k]), beyond


def _latency_summary(lat, tail_pct):
    """Median and tail latency.  The tail percentile drops below
    ``tail_pct`` only as far as needed to keep 10 samples beyond it."""
    s = sorted(lat)
    n = len(s)
    pct = max(50.0, min(tail_pct, 100.0 * (n - 10) / n))
    tail, beyond = _percentile(s, pct)
    return {
        "ops": n,
        "busy_s": sum(s),
        "p50_s": _percentile(s, 50.0)[0],
        "tail_s": tail,
        "tail_pct": pct,
        "tail_beyond": beyond,
    }


def _layer_metrics(tracer, traced_s, ops, untraced_s, unresolved):
    calls, self_s = tracer.totals()
    m = {}
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_ms"] = self_s.get(fn, 0.0) * 1e3
        m[f"{fn}.share"] = self_s.get(fn, 0.0) / traced_s
    k3_calls = calls.get("oracle.k3_witness", 0)
    m.update({
        "pell.cf_sqrt.period_terms": tracer.period_terms,
        "pell.negative_pell.calls_per_op": calls.get("pell.negative_pell", 0) / ops,
        "arith.factorize.calls_per_op": calls.get("arith.factorize", 0) / ops,
        "oracle.k3_witness.found_ratio": tracer.k3_found / k3_calls if k3_calls else 0.0,
        "oracle.k3_witness.unresolved": unresolved,
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
        "traced_ops": ops,
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("footprint", "setup", "measure", "trace"), required=True)
    ap.add_argument("--spans", help="write the traced run's spans to this JSON-lines file")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    gm = _import_library()
    inputs = wl.make_inputs(random.Random(args.seed))
    digest = hashlib.sha256(",".join(map(str, inputs)).encode()).hexdigest()
    sample = render(gm.classify(WARMUP_D))
    ready = time.monotonic()
    rec = {"ready": ready, "inputs": {"count": len(inputs), "sha256": digest}}
    if args.mode in ("footprint", "setup"):
        probes = [_speed_probe() for _ in range(SETUP_PROBES)]
        rec["setup_scale"] = PROBE_NOMINAL_S / statistics.fmean(probes)
        if args.mode == "footprint":
            # a fixed number of ops, so that peak memory does not grow with
            # the op count (and so with speed) the way the timed loop's
            # latency lists do; the timed loop counts ops that raise
            for x in inputs[: wl.footprint_ops]:
                try:
                    wl.op(gm, x, render)
                except Exception:
                    pass
            rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(rec))
        return 0

    if args.mode == "measure":
        tally, scaled, probes = _measure(wl, gm, inputs, ready + args.seconds)
        rec["setup_scale"] = PROBE_NOMINAL_S / statistics.fmean(probes[:SETUP_PROBES])
        rec["raw_latency"] = _latency_summary(tally.lat, wl.tail_pct)
        rec["probes"] = len(probes)
        tally.lat = scaled
    else:
        tracer = spans.Tracer()
        patches, absent = spans.wrappers(tracer, [t for t in TRACED_FUNCTIONS if t != "cli.render"])
        plain, tally = _measure_traced(wl, gm, inputs, ready + args.seconds, tracer, patches)
        if args.spans:
            keys = ("id", "parent", "op", "name", "start", "end", "self_s")
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        rec["layers"] = _layer_metrics(tracer, sum(tally.lat), len(tally.lat), sum(plain.lat), tally.unresolved)
        rec["absent"] = absent
        tally.lat += plain.lat
        tally.failed += plain.failed
        tally.unresolved += plain.unresolved
        tally.examples = (tally.examples + plain.examples)[:5]
    rec.update(
        latency=_latency_summary(tally.lat, wl.tail_pct),
        failed=tally.failed,
        failure_examples=tally.examples,
        k3_unresolved=tally.unresolved,
        self_test=check.self_test(WARMUP_D, sample),
    )
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
