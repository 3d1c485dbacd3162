"""Tiny-size runs of every workload, and the benchmark's agreement with BENCHMARK.json."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from layers import LAYER_METRICS
from run import END_TO_END, HERE, ROOT, bench
from workloads import WORKLOADS

TINY = {
    "fl_small": {"rounds": 3},
    "fl_dense": {"task_m": 32, "task_n": 32, "rounds": 3},
    "noise_sweep": {"sweep_ranks": "8,16", "noise_draws": 5000},
    "mia_game": {"mia_trials": 200},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, tmp_path):
    workload = WORKLOADS[name]
    tiny = dataclasses.replace(workload, config={**workload.config, **TINY[name]})
    record = bench(tiny, seed=7, seconds=0, trace=True, out_root=tmp_path)
    result = record["result"]

    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == {m.name for m in LAYER_METRICS}
    assert set(record["e2e"]) == {name for name, _, _ in END_TO_END}
    assert all(v > 0 for v in record["e2e"].values())
    assert len(record["digests"]) == 1
    assert result["metrics"][tiny.main_loop + ".calls"]["value"] > 0

    again = bench(tiny, seed=7, seconds=0, trace=False, out_root=tmp_path)
    assert again["digests"] == record["digests"] and again["result"]["correct"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fl_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
