"""Print one digest line per CLI invocation over every ``.qbmg`` file under the given
directories, so that two checkouts can be compared byte for byte with ``diff``.

    python3 tools/cli_digest.py DIR [DIR ...]

For each file, in sorted path order, it runs ``qbmg.cli.main`` in-process for
``check --json``, ``aut --json --stats``, ``aut --full --json --stats``,
``verify --json``, which reads Aut_I off the full group where the two are one,
``verify`` of the hereditary, orientation and orbit-pair checks, and of
``thin_orbit_pairs`` alone, each of which reads the full group first and Aut_I
off it, and ``verify`` of ``orientation_theorems`` alone, which searches Aut_I
with no full group built, through the twin quotient of the classes split by
color. It prints the argv, the SHA-256 of the exit code with
stdout, and the SHA-256 of stderr, so that a diff tells a change in what a
command answers from a change in its ``--stats`` lines alone. ``qbmg`` is
imported from ``sys.path`` (set ``PYTHONPATH`` to compare another checkout's
``src``), else from this checkout's ``src``.
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

COMMANDS = (
    ("check", "--json"),
    ("aut", "--json", "--stats"),
    ("aut", "--full", "--json", "--stats"),
    ("verify", "--json"),
    ("verify", "--theorems=gamma_quotient_hereditary,orientation_theorems,thin_orbit_pairs",
     "--json"),
    ("verify", "--theorems=thin_orbit_pairs", "--json"),
    ("verify", "--theorems=orientation_theorems", "--json"),
)


def digest(main, argv: list[str]) -> str:
    """The SHA-256 of one invocation's exit code with stdout, then the SHA-256 of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    answer = hashlib.sha256(f"{code}\0{out.getvalue()}".encode()).hexdigest()
    return f"{answer} {hashlib.sha256(err.getvalue().encode()).hexdigest()}"


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/cli_digest.py DIR [DIR ...]", file=sys.stderr)
        return 2
    try:
        from qbmg.cli import main as qbmg_main
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from qbmg.cli import main as qbmg_main
    for path in sorted(p for d in argv for p in Path(d).rglob("*.qbmg")):
        for command in COMMANDS:
            args = [command[0], str(path), *command[1:]]
            print(" ".join(args), digest(qbmg_main, args))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
