"""Smoke tests of the benchmark at tiny sizes: outputs check, counts repeat, layers separate.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_passes_its_checks(workload):
    info, result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_share"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spans.BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    info1, first = result_of(bench(workload, 1))
    info2, second = result_of(bench(workload, 1))
    # Each traced run already compares two processes; two runs must agree too.
    assert first["correct"] and second["correct"]
    assert info1["inputs_sha256"] == info2["inputs_sha256"]
    assert set(first["metrics"]) == set(spans.PER_LAYER)
    for name in spans.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["cli.self_s"]["value"] > 0


def test_recognize_never_reaches_the_group_layers():
    info, result = result_of(bench("recognize", 1))
    assert info["member_share"] == 0.5
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("autgroup", "perms", "quotients", "orientations"):
        assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["perms.Permutation.calls"] == 0
    assert metrics["axioms.calls"] > 0 and metrics["digraph.parse_graph.s"] > 0


def test_seed_decides_the_inputs():
    digests = [result_of(bench("recognize", 0, seed))[0]["inputs_sha256"] for seed in (3, 3, 4)]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("recognize", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
