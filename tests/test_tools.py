"""The scripts under ``tools/``: sizes, CLI digests, fresh-process start-up times and
in-process times on the largest graphs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbmg"


def test_src_size_counts_every_line_once():
    done = subprocess.run([sys.executable, "tools/src_size.py", "src/qbmg"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    counts = {key: int(n.replace(",", ""))
              for key, n in re.findall(r"^\s*(\w+)\s+([\d,]+)$", done.stdout, re.M)}
    # What ``cat src/qbmg/*.py | wc -l`` prints: the newlines of every module.
    assert counts["lines"] == sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    parts = ("code", "docstrings", "comments", "blank")
    assert sum(counts[key] for key in parts) == counts["lines"], counts


def test_cli_digest_prints_the_same_lines_on_two_runs():
    # Seven invocations per fixture, each an argv and two SHA-256s, one of the
    # exit code with stdout and one of stderr; a second run prints the same
    # lines, so a diff of two checkouts' runs is empty.
    runs = [subprocess.run([sys.executable, "tools/cli_digest.py", "fixtures"], cwd=ROOT,
                           capture_output=True, text=True, timeout=120) for _ in range(2)]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, ""), (0, "")]
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    files = sorted((ROOT / "fixtures").rglob("*.qbmg"))
    assert len(lines) == 7 * len(files)
    assert all(re.fullmatch(
        r"(check|aut|verify) fixtures/\S+\.qbmg( --\S+)+ [0-9a-f]{64} [0-9a-f]{64}", line)
        for line in lines)


def test_startup_prints_one_median_per_command():
    done = subprocess.run([sys.executable, "tools/startup.py", "--runs", "2"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["check", "aut", "verify", "generate"]
    assert all(re.fullmatch(r"\w+ +median_ms \d+\.\d runs 2", line) for line in lines), lines


def test_frontier_prints_one_median_per_graph_and_command():
    done = subprocess.run([sys.executable, "tools/frontier.py", "--runs", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    graphs = ["layered(4,8)", "layered(3,10)", "layered(2,12)", "layered(2,16)", "matching(8)"]
    assert [line.split()[0] for line in lines] == [g for g in graphs for _ in range(2)]
    assert all(re.fullmatch(r"\S+ +aut (--full )?--json +median_ms \d+\.\d\d runs 1", line)
               for line in lines), lines
    assert [" --full " in line for line in lines] == [False, True] * len(graphs)
