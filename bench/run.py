"""The qbmg benchmark: drives ``qbmg`` commands in-process and checks every output.

Run from the root of a checkout:

    python3 bench/run.py --workload recognize --seed 1 --seconds 10 --trace 0

Workloads (``--workload``):

    recognize          qbmg check --json on 600 seeded members and 600 non-members
    suite              qbmg verify --json on ~1,250 seeded members and the fixture corpus
    symmetry-search    qbmg aut --json on layered graphs ((s, m) = (4, 3), (3, 4), (2, 5))
    symmetry-closure   qbmg aut [--full] --json on K_{r,s} and symmetric matchings
    symmetry-orient    qbmg verify --theorems orientation_theorems on matchings

Each run starts one worker process (two with ``--trace 1``), which imports qbmg
from ``src/`` and calls ``qbmg.cli.main(argv)`` as a closed loop with one
client. ``--trace 0`` prints the end-to-end metrics, with each op's time scaled
to a reference machine speed by ``probe.py``; ``--trace 1`` runs a fixed
op list without and with spans around the calls into each module, twice in
separate processes, and prints the per-layer metrics. Counts that differ
between the two traced processes fail the run. The metrics, their units and
bounds are read from ``BENCHMARK.json``.

The last line of stdout is the result,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it gives the seed, the SHA-256 of the inputs and the sample count.
Every result is also appended to ``.bench_out/results.jsonl`` for
``bench/compare.py``. Inputs, spans and results are written under
``.bench_out/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; leave room to print.
DEADLINE_S = 170


def run_worker(args, mode: str, out: Path, deadline: float, offset: int = 0) -> dict:
    """Run worker.py once and return its JSON document.

    String hashing decides how sets and dicts of vertex tokens are laid out,
    which can change the order of the automorphism search. The worker's hash
    seed is therefore ``--seed`` (plus ``offset``), so that a sweep over seeds
    also covers hash layouts; the two traced runs use two, so that their
    count comparison also catches a count that depends on set order.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": str((args.seed + offset) % 2**32)},
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not Path("src/qbmg/__init__.py").is_file() or not Path("fixtures/corpus").is_dir():
        print("error: run from the root of a qbmg checkout (src/qbmg and fixtures/corpus "
              "are missing here)", file=sys.stderr)
        return 2
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)

    try:
        if args.trace == 0:
            doc = run_worker(args, "timed", out, deadline)
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            doc["metrics"]["peak_rss_mb"] = peak_kb / 1024
            metrics = spans.BENCHMARK["end_to_end"]
        else:
            doc = run_worker(args, "traced", out, deadline)
            again = run_worker(args, "traced", out, deadline, offset=1)
            unstable = [f"count {k} differs between two traced runs: "
                        f"{doc['metrics'][k]} vs {again['metrics'][k]}"
                        for k in spans.EXACT if doc["metrics"][k] != again["metrics"][k]]
            if doc["info"]["inputs_sha256"] != again["info"]["inputs_sha256"]:
                unstable.append("inputs differ between two traced runs")
            doc["failures"] += again["failures"] + unstable
            doc["attempted"] += again["attempted"]
            doc["failed"] += again["failed"] + len(unstable)
            doc["correct"] = doc["correct"] and again["correct"] and not unstable
            metrics = spans.BENCHMARK["per_layer"]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for failure in doc["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "failed_share": doc["failed"] / doc["attempted"], **doc["info"]}
    result = {"correct": doc["correct"], "attempted": doc["attempted"],
              "failed": doc["failed"],
              "metrics": {m["name"]: {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps({**info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
