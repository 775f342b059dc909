"""The benchmark's own tests, run at a tiny size::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import END_TO_END, END_TO_END_NAMES, PER_LAYER, PER_LAYER_NAMES
from spans import NO_PARENT, nearest_rank, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay_macro", "replay_micro", "traffic_mc", "sampled_sweep")


def bench(workload, *extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--scale", "0.05", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_mirrors_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        m[:4] for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed(workload, trace):
    proc, result = bench(workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = PER_LAYER_NAMES if trace == "1" else END_TO_END_NAMES
    assert list(result["metrics"]) == list(names)
    for name in names:
        assert f"{workload} {name} " in proc.stdout
    assert f"{workload} sim_digest " in proc.stdout
    if trace == "0":
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_perturbed_digest_fails_the_run():
    proc, result = bench("replay_micro", "--fault", "digest")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "sim_digest differs" in proc.stdout


@pytest.mark.parametrize("workload", ["replay_micro", "traffic_mc"])
def test_broken_conservation_fails_the_run(workload):
    proc, result = bench(workload, "--fault", "conservation")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "conservation" in proc.stdout


def test_live_slot_error_is_counted_not_raised():
    proc, result = bench("replay_micro", "--fault", "slot")
    assert proc.returncode == 1
    assert result["failed"] > 0 and result["correct"] is False
    assert "live slot" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("replay_micro", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None


def test_self_time_subtracts_children():
    spans = [
        ["run", 0.0, 10.0, NO_PARENT, 0],
        ["alloc.fast", 1.0, 3.0, 0, 5],
        ["app_traffic", 4.0, 5.0, 0, 0],
    ]
    assert self_times(spans) == {"run": 7.0, "alloc.fast": 2.0, "app_traffic": 1.0}


def test_nearest_rank_reports_samples_beyond():
    values = list(range(1, 1001))
    assert nearest_rank(values, 0.99) == (990, 10)
    assert nearest_rank(values[:100], 0.99) == (99, 1)
    assert nearest_rank([], 0.5) == (0.0, 0)
