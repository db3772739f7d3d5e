"""One run of one workload in its own process: set up, run the ops, check them.

Started by ``run.py`` from the root of a checkout, never by hand. It prints
one JSON object on stdout. ``--mode timed`` runs the ops as a closed loop with
one client, in whole passes, for ``--seconds``, and reports end-to-end figures
from op times scaled by ``probe.Probe``, which samples the machine's speed
between and during ops. ``--mode traced`` runs a fixed op list once without
and once with spans, and reports the per-layer figures and the difference in
wall time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import probe
import spans
import workloads

# Set-up runs this many times per timed run; setup_s is the median.
SETUP_REPEATS = 5


def setup(workload: str, seed: int, smoke: bool, out_root: Path):
    """Import qbmg afresh and write the inputs; return (main, ops, digest)."""
    for name in [m for m in sys.modules if m == "qbmg" or m.startswith("qbmg.")]:
        del sys.modules[name]
    cli = importlib.import_module("qbmg.cli")
    ops, digest = workloads.build(workload, seed, smoke, out_root / "inputs" / workload)
    return cli.main, ops, digest


def run_op(call, argv):
    """One CLI call with its output captured; return (seconds, exit code or exception, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = call(list(argv))
        except (Exception, SystemExit) as exc:  # counted as a failed op
            rc = exc
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


class Checker:
    """Checks each input's first result in full, and every repeat for identical output."""

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.failures: list[str] = []

    def __call__(self, op: workloads.Op, rc, out: str) -> bool:
        if op.name in self.first:
            ok_first, rc_first, out_first = self.first[op.name]
            ok = ok_first and (rc_first, out_first) == (rc, hash(out))
            if ok_first and not ok:
                self.failures.append(f"{op.name}: output changed on repeat")
            return ok
        try:
            if isinstance(rc, BaseException):
                raise oracle.Mismatch(f"raised {rc!r}")
            op.check(rc, out)
            ok = True
        except (oracle.Mismatch, KeyError, TypeError, ValueError, AttributeError) as exc:
            self.failures.append(f"{op.name}: {exc}")
            ok = False
        self.first[op.name] = (ok, rc, hash(out))
        return ok


def timed(args, out_root: Path) -> dict:
    speed = probe.Probe()
    with speed.sampling():
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            start, probing = time.perf_counter(), speed.probing_s
            call, ops, digest = setup(args.workload, args.seed, args.smoke, out_root)
            setup_spans.append((start, time.perf_counter() - start - (speed.probing_s - probing)))
        member_share = workloads.validate(ops)
        check = Checker()
        run_op(call, ops[0].argv)  # warm-up: first-call costs users pay once per process
        timings: list[list[tuple[float, float]]] = [[] for _ in ops]
        attempted = failed = 0
        # Users run each command in a fresh process. So the collector stops
        # tracking the objects that exist now, the benchmark's own among them,
        # and before each op, untimed, it collects what the previous op left.
        gc.freeze()
        start = time.perf_counter()
        while attempted < len(ops) or time.perf_counter() - start < args.seconds:
            for i, op in enumerate(ops):
                gc.collect()
                t0, probing = time.perf_counter(), speed.probing_s
                elapsed, rc, out = run_op(call, op.argv)
                timings[i].append((t0, elapsed - (speed.probing_s - probing)))
                attempted += 1
                failed += not check(op, rc, out)
        measured = time.perf_counter() - start
    raw_setups = [e for _, e in setup_spans]
    setups = [e * speed.scale(t0, t0 + e) for t0, e in setup_spans]
    scaled = [[e * speed.scale(t0, t0 + e) for t0, e in ts] for ts in timings]
    raw = [[e for _, e in ts] for ts in timings]
    metrics = {"setup_s": statistics.median(setups), **_latency_metrics(scaled)}
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "failures": check.failures[:20],
        "info": {"inputs_sha256": digest, "inputs": len(ops), "samples": len(ops),
                 "member_share": member_share,
                 "passes": attempted // len(ops), "measured_s": measured,
                 "probe_median_s": statistics.median(speed.seconds),
                 "unscaled": {"setup_s": statistics.median(raw_setups),
                              **_latency_metrics(raw)}},
    }


def _latency_metrics(repeats: list[list[float]]) -> dict[str, float]:
    """Throughput and percentiles over inputs, each input at the median of its repeats."""
    per_input = [statistics.median(r) for r in repeats]
    ranked = sorted(per_input)
    return {
        "ops_per_s": len(per_input) / sum(per_input),
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_p99_ms": ranked[math.ceil(0.99 * len(ranked)) - 1] * 1e3,
    }


def traced(args, out_root: Path) -> dict:
    call, ops, digest = setup(args.workload, args.seed, args.smoke, out_root)
    member_share = workloads.validate(ops)
    subset = workloads.traced_ops(args.workload, ops, args.smoke)
    check = Checker()
    failed = 0
    for op in subset:  # warm-up, so neither timed pass is the first to see an input
        run_op(call, op.argv)
    untraced = 0.0
    for op in subset:
        elapsed, rc, out = run_op(call, op.argv)
        untraced += elapsed
        failed += not check(op, rc, out)
    tracer = spans.Tracer()
    traced_s = 0.0
    with tracer.installed():
        for op in subset:
            elapsed, rc, out = run_op(lambda argv: tracer.call_op(call, argv), op.argv)
            traced_s += elapsed
            failed += not check(op, rc, out)
    metrics = tracer.metrics()
    metrics.update({"trace.untraced_s": untraced, "trace.overhead_s": traced_s - untraced})
    trace_dir = out_root / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    cases = [{"op": op.name, **{k: round(v, 6) for k, v in layers.items()}}
             for op, layers in zip(subset, tracer.per_op_layers())]
    return {
        "correct": failed == 0, "attempted": 2 * len(subset), "failed": failed,
        "metrics": metrics, "failures": check.failures[:20],
        "info": {"inputs_sha256": digest, "inputs": len(ops), "member_share": member_share,
                 "traced_ops": len(subset),
                 "spans": len(tracer.spans),
                 "cases": cases if args.workload in workloads.LADDERS else []},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    sys.path.insert(0, "src")
    doc = (timed if args.mode == "timed" else traced)(args, args.out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
