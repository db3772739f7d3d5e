"""Print the median wall time of ``qbmg check``, ``aut``, ``verify`` and ``generate``,
each run as a user runs it: in a fresh Python process that imports the package.

    python3 tools/startup.py [--runs N] [GRAPH]

GRAPH defaults to ``fixtures/corpus/blowup_base.qbmg``; ``generate`` builds
``two-layer --m 3``. The commands run in turn, N times each (default 15), so a
slow spell of the machine spreads over all of them. Each process is timed from
start to exit and imports ``qbmg`` from ``sys.path`` (set ``PYTHONPATH`` to
time another checkout's ``src``), else from this checkout's ``src``. The
environment passes through unchanged: with ``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__``, every module a command loads is compiled from source, which
is what this measures. One line per command:

    check    median_ms 63.1 runs 15

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# What the ``qbmg`` console script runs.
SCRIPT = "import sys; from qbmg.cli import main; sys.exit(main())"


GRAPH = ROOT / "fixtures" / "corpus" / "blowup_base.qbmg"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh processes per command")
    parser.add_argument("graph", nargs="?", default=str(GRAPH))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [env.get("PYTHONPATH"), str(ROOT / "src")]))
    argvs = {
        "check": ["check", args.graph],
        "aut": ["aut", args.graph],
        "verify": ["verify", args.graph],
        "generate": ["generate", "two-layer", "--m", "3"],
    }
    seconds: dict[str, list[float]] = {name: [] for name in argvs}
    for _ in range(args.runs):
        for name, cmd in argvs.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", SCRIPT, *cmd], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            seconds[name].append(time.perf_counter() - start)
            if done.returncode not in (0, 1):  # 1: the graph fails a checked property
                print(f"{name}: exit {done.returncode}: {done.stderr.decode().strip()}",
                      file=sys.stderr)
                return 1
    for name, runs in seconds.items():
        print(f"{name:<8} median_ms {statistics.median(runs) * 1e3:.1f} runs {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
