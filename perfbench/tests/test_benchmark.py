"""Self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced with ``--quick``; the
test asserts that every metric BENCHMARK.json names is reported with
its unit and that no operation failed at the recorded reference.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_reported_and_no_failures(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = summary["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float), metric["name"]
    assert summary["attempted"] >= 1
    assert summary["failed"] == 0, proc.stderr
    assert summary["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checks_reject_changed_outputs():
    fig3 = REFERENCE["figures"]["fig3"]
    assert workloads.compare_files("fig3", fig3, fig3) == []

    flipped = copy.deepcopy(fig3)
    flipped["fig3_report.txt"] = fig3["fig3_report.txt"].replace(": FAIL", ": PASS", 1)
    assert workloads.compare_files("fig3", flipped, fig3)

    shifted = copy.deepcopy(fig3)
    lines = fig3["fig3_full_curves.csv"].splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-10)
    shifted["fig3_full_curves.csv"] = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert workloads.compare_files("fig3", shifted, fig3)

    eq = REFERENCE["cli_queries"]["equilibria"]
    moved = copy.deepcopy(eq)
    moved["equilibria"][0]["x"] += 2e-6
    assert workloads.compare_equilibria("equilibria", json.dumps(eq), eq) == []
    assert workloads.compare_equilibria("equilibria", json.dumps(moved), eq)
