"""Print the in-process median time of ``qbmg aut --json`` and ``qbmg aut --full --json`` on
the largest graphs the caps allow.

    python3 tools/frontier.py [--runs N]

The graphs are ``layered(random_layered_spec(s, m, 1))`` for (s, m) = (4, 8),
(3, 10), (2, 12) and (2, 16), each 32 to 64 vertices, and the matching of 8
symmetric edges. Each command runs N times (default 15) through
``qbmg.cli.main`` in this process, the cases in turn, so a slow spell of the
machine spreads over all of them; the first run of each case is a warm-up
and is not timed. One line per graph and command:

    layered(2,16) aut --json          median_ms 18.0 runs 15

``qbmg`` is imported from ``sys.path`` (set ``PYTHONPATH`` to time another
checkout's ``src``), else from this checkout's ``src``. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

SPECS = ((4, 8), (3, 10), (2, 12), (2, 16))
MATCHING = 8
COMMANDS = (("aut", "--json"), ("aut", "--full", "--json"))


def _graphs():
    """(name, graph) for each frontier input."""
    from qbmg import ColoredDigraph, layered, random_layered_spec

    for s, m in SPECS:
        yield f"layered({s},{m})", layered(random_layered_spec(s, m, 1))
    u = [str(i) for i in range(1, MATCHING + 1)]
    w = [str(i) for i in range(MATCHING + 1, 2 * MATCHING + 1)]
    yield f"matching({MATCHING})", ColoredDigraph(
        u, w, [e for a, b in zip(u, w) for e in ((a, b), (b, a))])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="timed runs per graph and command")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    try:
        import qbmg  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from qbmg import format_graph
    from qbmg.cli import main as qbmg_main

    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name, g in _graphs():
            path = Path(tmp) / f"{name}.qbmg"
            path.write_text(format_graph(g))
            cases.extend((name, [command[0], str(path), *command[1:]]) for command in COMMANDS)
        seconds: list[list[float]] = [[] for _ in cases]
        for run in range(args.runs + 1):
            for (name, cmd), times in zip(cases, seconds):
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = qbmg_main(cmd)
                elapsed = time.perf_counter() - start
                if code != 0:
                    print(f"{name} {' '.join(cmd)}: exit {code}", file=sys.stderr)
                    return 1
                if run:
                    times.append(elapsed)
    for (name, cmd), times in zip(cases, seconds):
        command = " ".join([cmd[0], *cmd[2:]])
        print(f"{name:<13} {command:<17} median_ms {statistics.median(times) * 1e3:.2f} "
              f"runs {len(times)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
