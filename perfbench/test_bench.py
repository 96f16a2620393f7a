"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

The traced-run tests start the real workloads, about a minute in total.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import job_metrics, self_times  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_self_time_subtracts_the_union_of_children():
    # job [0, 10] > a [1, 5] > b [2, 3]; two overlapping children of c [6, 9]
    spans = [
        (2, "a", 1.0, 5.0, 1, 0, None),
        (3, "b", 2.0, 3.0, 2, 0, None),
        (4, "c", 6.0, 9.0, 1, 0, None),
        (5, "d", 6.5, 8.0, 4, 0, None),
        (6, "d", 7.0, 8.5, 4, 1, None),
        (1, "job", 0.0, 10.0, 0, 0, None),
    ]
    selfs = self_times(spans)
    assert selfs == {2: 3.0, 3: 1.0, 4: 1.0, 5: 1.5, 6: 1.5, 1: 3.0}
    metrics = job_metrics(spans, job_id=1, threads=1)
    assert metrics["d.calls"] == 2
    assert metrics["d.self_s"] == 3.0
    assert metrics["trace.uncovered_ratio"] == pytest.approx(0.3)


def test_benchmark_json_names_the_metrics_run_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.wl.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench(tmp_path, "--workload", "experiment_f1", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", run.wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "MB")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
