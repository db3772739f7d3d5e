"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines ``run.py`` appends to ``.bench_out/results.jsonl``.
The comparison refuses to run (exit 2) when a workload and seed present in both
files was measured on inputs with different SHA-256 digests, or when a count
that must repeat exactly differs between two traced runs of the same seed in
one file. Otherwise it prints, per workload and metric, each side's median and
quartiles, and exits 1 when a change's end-to-end median is worse than the
base's by more than the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def refusals(base: list[dict], new: list[dict]) -> list[str]:
    problems = []
    digests: dict[tuple, set] = defaultdict(set)
    for rec in base + new:
        digests[(rec["workload"], rec["seed"])].add(rec["inputs_sha256"])
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: inputs differ ({len(seen)} digests)")
    for label, records in (("base", base), ("new", new)):
        counts: dict[tuple, dict] = {}
        for rec in records:
            if rec["trace"] != 1:
                continue
            got = {k: rec["result"]["metrics"][k]["value"] for k in spans.EXACT}
            first = counts.setdefault((rec["workload"], rec["seed"]), got)
            for k in spans.EXACT:
                if first[k] != got[k]:
                    problems.append(f"{label} {rec['workload']} seed {rec['seed']}: "
                                    f"{k} is {first[k]} in one run and {got[k]} in another")
    return problems


def summary(records: list[dict], workload: str, trace: int, metric: str):
    values = [r["result"]["metrics"][metric]["value"] for r in records
              if r["workload"] == workload and r["trace"] == trace]
    if not values:
        return None
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    problems = refusals(base, new)
    if problems:
        print("refusing to compare:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    worse = []
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(f"== {workload}")
        rows = [(m["name"], m["better"], m.get("bound"))
                for m in spans.BENCHMARK["end_to_end"] + spans.BENCHMARK["per_layer"]]
        for metric, better, bound in rows:
            trace = 0 if bound is not None else 1
            a = summary(base, workload, trace, metric)
            b = summary(new, workload, trace, metric)
            if a is None or b is None:
                continue
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            verdict = ""
            if bound is not None:
                spread = (a[2] - a[0]) / a[1] if a[1] else 0.0
                loss = -change if better == "higher" else change
                if loss > bound:
                    verdict = "WORSE"
                    worse.append(f"{workload} {metric}")
                elif spread > bound:
                    verdict = "unresolved (base spread above bound)"
            print(f"  {metric:45s} {a[1]:12.6g} [{a[0]:.6g}, {a[2]:.6g}]  ->  "
                  f"{b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]  {change:+.1%} {verdict}")
    if worse:
        print("worse than the bound:", ", ".join(worse))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
