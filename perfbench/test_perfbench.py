"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

The checkers must reject a corrupted output, traced runs must repeat their
exact counts on one seed, the emitted metrics must match BENCHMARK.json, and
the benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scale_first_work(rows):
    n, work, baseline = rows[0]
    return [(n, work * (1.0 + 1e-6), baseline), *rows[1:]]


def _flip_first_flag(out):
    code, text = out
    lines = text.split("\n")
    cells = lines[5].split(",")  # first data row: a carnot flag
    cells[3] = "0" if cells[3] == "1" else "1"
    lines[5] = ",".join(cells)
    return code, "\n".join(lines)


def _nudge_value(solution):
    return dataclasses.replace(solution, value=solution.value + 1e-6)


def _nan_in_json(outs):
    code, text = outs[1]  # report --perm
    outs = list(outs)
    outs[1] = (code, re.sub(r'"work": [^,\n]+', '"work": NaN', text, count=1))
    return outs


CORRUPTIONS = {
    "catalyst-ladder": _scale_first_work,
    "regime-csv": _flip_first_flag,
    "lp-bound": _nudge_value,
    "cli-queries": _nan_in_json,
}


@pytest.fixture(scope="module")
def mods():
    return harness.load_twostroke()


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(mods, name):
    workload = WORKLOADS[name]
    corrupt = CORRUPTIONS[name]
    broken = dataclasses.replace(workload, run=lambda m, inp: corrupt(workload.run(m, inp)))
    inputs = [workload.make_input(np.random.default_rng([7, 0]))]
    kernel = harness.ReferenceKernel()

    (clean,) = harness.run_loop(workload, mods, inputs, kernel, seconds=0, min_jobs=1)
    (bad,) = harness.run_loop(broken, mods, inputs, kernel, seconds=0, min_jobs=1)
    assert clean.problems == []
    assert bad.problems


def _run(workload, seed, trace, cwd=ROOT):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return result


@pytest.mark.parametrize("name", ["cli-queries", "lp-bound"])
def test_exact_counts_repeat(name):
    counts = []
    for _ in range(2):
        result = _run(name, 3, 1)
        assert result.returncode == 0, result.stderr
        final = json.loads(result.stdout.splitlines()[-1])
        assert final["correct"] and final["failed"] == 0
        assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: v["value"] for k, v in final["metrics"].items() if k in harness.COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["simplex.iterations"] > 0


def test_timed_run_reports_end_to_end_metrics():
    result = _run("cli-queries", 5, 0)
    assert result.returncode == 0, result.stderr
    final = json.loads(result.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] >= harness.MIN_JOBS
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = _run("cli-queries", 1, 0, cwd=tmp_path)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
