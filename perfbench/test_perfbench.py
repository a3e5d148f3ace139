"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from lassomatroid import lasso, matroid  # noqa: E402
from lassomatroid.tree import tree_from_newick  # noqa: E402

WORKLOADS = ["bases", "topo", "recover", "queries"]
COUNT_SUFFIXES = ("_calls", "_emitted", "shapes_tried", "shapes_enumerated",
                  "rank_queries", "feasible_constraints", "memo_entries")


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def test_reference_agrees_with_package_on_random_trees():
    rng = random.Random(5)
    for n in (4, 6, 9):
        labels = [f"x{i}" for i in range(n)]
        for p in (0.0, 0.5, 1.0):
            shape = inputs.random_shape(rng, labels, p)
            t = tree_from_newick(shape.newick())
            cords = inputs.random_cords(rng, labels, n)
            assert reference.rank(shape, cords) == matroid.rank_of(t, cords)
            assert set(reference.closure(shape, cords)) == matroid.closure(t, cords)
            assert set(reference.coloops(shape)) == matroid.coloops(t)
            assert reference.is_cover(shape, cords) == lasso.is_t_cover(t, cords)


def test_reference_detects_dependence():
    shape = inputs.star("abcd")
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]   # even cycle
    assert reference.rank(shape, square) == 3
    assert reference.is_circuit(shape, square)
    assert reference.coloops(shape) == []


def test_factors_follow_the_chunks_around_each_operation():
    fast, slow = calibrate.NOMINAL_CHUNK_S, 2 * calibrate.NOMINAL_CHUNK_S
    after = [[fast] * 10, [fast] * 10, [slow] * 10, [slow] * 10]
    during = [[], [], [], []]
    # operation 2 ran between a fast and a slow stretch; the median is their mean
    assert calibrate.factors(during, after) == [1.0, 1.0, pytest.approx(2 / 3), 0.5]
    # chunks run during an operation count with those around it
    during[2] = [slow] * 30
    assert calibrate.factors(during, after)[2] == 0.5
    # too few chunks next to an operation: widen until there are MIN_CHUNKS
    few = [[fast, fast]] * 3 + [[slow, slow]] * 3
    assert calibrate.factors([[]] * 6, few)[0] == 1.0
    assert calibrate.factors([[]] * 6, few)[-1] == 0.5


def test_chunks_run_while_an_operation_runs():
    with calibrate.During() as during:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(during.samples) >= calibrate.KEEP * 4 and 0 < during.spent < 0.2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    counts = []
    for _ in range(2):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if name.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "topo", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_results_from_different_hosts(tmp_path):
    def write(directory, nproc, value):
        directory.mkdir()
        record = {"workload": "topo", "host": {"nproc": nproc, "python": "3.11"},
                  "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}
        (directory / "result-topo-seed1-trace0.json").write_text(json.dumps(record))

    write(tmp_path / "a", 2, 10.0)
    write(tmp_path / "b", 2, 9.5)
    write(tmp_path / "c", 4, 9.5)
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(tmp_path / "a"), str(tmp_path / "b")],
                          capture_output=True, text=True)
    assert same.returncode == 0 and "ops_per_s" in same.stdout
    mixed = subprocess.run(compare + [str(tmp_path / "a"), str(tmp_path / "c")],
                           capture_output=True, text=True)
    assert mixed.returncode == 2 and "different hosts" in mixed.stderr
