"""Byte-for-byte CLI output on fixed inputs, frozen in fixtures/golden/cli.json.

Each case is an argv run through ``qbmg.cli.main`` from the repository root;
its exit code and stdout must match the frozen copy exactly. After a change
that is meant to alter output, rewrite the frozen copy with

    PYTHONPATH=src python -m tests.test_golden

The capture holds no stderr. ``fixtures/golden/cli_digest.txt`` covers it: the
digest lines of ``tools/cli_digest.py`` over ``fixtures/``, which hash the
stderr of each invocation (``--stats`` lines, cap messages) apart from its exit
code and stdout. Rewrite it, from the repository root, with

    python3 tools/cli_digest.py fixtures > fixtures/golden/cli_digest.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbmg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "fixtures" / "golden" / "cli.json"
DIGEST = ROOT / "fixtures" / "golden" / "cli_digest.txt"
CORPUS_FILES = sorted(p.name for p in (ROOT / "fixtures" / "corpus").glob("*.qbmg"))
SYMMETRY_FILES = sorted(p.name for p in (ROOT / "fixtures" / "symmetry").glob("*.qbmg"))
NEGATIVE_FILES = sorted(p.name for p in (ROOT / "fixtures" / "negative").glob("*.qbmg"))
SPEC_FILES = sorted(p.name for p in (ROOT / "fixtures" / "specs").glob("*.spec"))
PARTITION_CASES = (("nonorbit_base.qbmg", "nonorbit_blocks.txt"),
                   ("star_product.qbmg", "star_product_orbits.txt"))
SEED = "7"


def _cases() -> list[list[str]]:
    cases = []
    for name in CORPUS_FILES:
        cases.append(["verify", f"fixtures/corpus/{name}"])
        cases.append(["verify", f"fixtures/corpus/{name}", "--json"])
    theorems = "thin_orbit_pairs,membership,route_equivalence,route_equivalence"
    cases.append(["verify", "--corpus", "fixtures/corpus", "--theorems", theorems])
    cases.append(["verify", "--corpus", "fixtures/corpus", "--theorems", theorems, "--json"])
    for family, ms in (("two-layer", range(1, 5)), ("n2-trivial", range(1, 4))):
        for m in ms:
            cases.append(["generate", family, "--m", str(m)])
            cases.append(["generate", family, "--m", str(m), "--seed", SEED])
    aut_inputs = ([f"fixtures/corpus/{name}" for name in CORPUS_FILES]
                  + [f"fixtures/symmetry/{name}" for name in SYMMETRY_FILES])
    for path in aut_inputs:
        for flags in ([], ["--json"], ["--full"], ["--full", "--json"]):
            cases.append(["aut", path, *flags])
    check_inputs = ([f"fixtures/corpus/{name}" for name in CORPUS_FILES]
                    + [f"fixtures/negative/{name}" for name in NEGATIVE_FILES])
    for path in check_inputs:
        cases.append(["check", path])
        cases.append(["check", path, "--json"])
    for name in CORPUS_FILES:
        for mode in ("--classical", "--canonical-gamma"):
            for flags in ([], ["--json"], ["--dot"]):
                cases.append(["quotient", f"fixtures/corpus/{name}", mode, *flags])
    for graph, blocks in PARTITION_CASES:
        for flags in ([], ["--json"], ["--dot"]):
            cases.append(["quotient", f"fixtures/corpus/{graph}",
                          "--partition", f"fixtures/partitions/{blocks}", *flags])
    for name in SPEC_FILES:
        cases.append(["generate", "layered", "--spec", f"fixtures/specs/{name}"])
    cases.append(["generate", "random", "--s", "3", "--m", "3", "--seed", SEED])
    cases.append(["generate", "layered", "--spec", f"fixtures/specs/{SPEC_FILES[0]}", "--dot"])
    return cases


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return {" ".join(doc["argv"]): doc for doc in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_is_unchanged(golden, argv):
    assert _run(argv) == golden[" ".join(argv)]


def test_cli_digest_is_unchanged():
    done = subprocess.run([sys.executable, "tools/cli_digest.py", "fixtures"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines, frozen = done.stdout.splitlines(), DIGEST.read_text().splitlines()
    for line, want in zip(lines, frozen):
        if line != want:
            (argv, answer, _), (got_argv, got_answer, _) = want.rsplit(" ", 2), line.rsplit(" ", 2)
            what = ("the argv list" if got_argv != argv else
                    "its stderr" if got_answer == answer else "its exit code or stdout")
            pytest.fail(f"{argv}: {what} differs from {DIGEST.name}")
    assert len(lines) == len(frozen), f"the argv list differs from {DIGEST.name}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(argv) for argv in _cases()], indent=1) + "\n")
