"""Smoke runs of every benchmark workload at a tiny size, plus the output contract.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer, targets
from workloads import GUIDANCES, PlantedGrid, Replay

ROOT = Path(__file__).resolve().parent.parent


def tiny_workloads(tmp_path):
    return [
        PlantedGrid(seed=3, problems=range(4), n_seeds=1),
        Replay("replay-mid", 3, batch=16, length=8, vocab=32, steps=4, reference=(1, 0.01),
               trace_path=tmp_path / "tiny.oddt"),
        Replay("replay-large", 3, batch=16, length=6, vocab=24, steps=3, reference=(1, 0.01)),
    ]


@pytest.mark.parametrize("index", range(3), ids=["planted-grid", "replay-mid", "replay-large"])
def test_workload_runs_clean_untraced_and_traced(tmp_path, index):
    workload = tiny_workloads(tmp_path)[index]
    gauge = run.SpeedGauge(workload.reference[0], 1, 0.01)
    setup_times, io, setup_scale = run.timed_setup(workload, gauge)
    assert len(setup_times) == workload.setup_reps
    assert len(gauge.samples) == 2 and setup_scale > 0
    assert workload.setup_failures() == []

    blocks = run.run_blocks(workload, GUIDANCES, seconds=0.0, gauge=gauge)
    assert blocks.failed == 0, blocks.failures
    assert all(len(blocks.rates[g]) >= run.MIN_BLOCKS and min(blocks.rates[g]) > 0
               for g in GUIDANCES)
    # one gauge sample before each untraced block, and one after the last
    assert len(gauge.samples) == 3 + sum(map(len, blocks.rates.values()))
    assert all(blocks.nominal_rate(g, gauge) > 0 for g in GUIDANCES)
    assert workload.prefix_probe(blocks.first["odd"]) == []
    assert all(run.peak_alloc_mib(workload, g) > 0 for g in GUIDANCES)

    tracer = Tracer()
    traced = run.run_blocks(workload, GUIDANCES, seconds=0.0, tracer=tracer)
    assert traced.failed == 0, traced.failures
    for g in GUIDANCES:  # traced and untraced blocks produce the same outputs
        for a, b in zip(blocks.first[g], traced.first[g]):
            assert (a.outputs == b.outputs).all()
    bsv = run.hook_peak_bsv(workload, ("odd", "dpp"))
    metrics, notes = run.layer_metrics(tracer, traced, io, bsv)
    assert set(metrics) == set(run.PER_LAYER)
    assert notes["missing_targets"] == [] and notes["hook_errors"] == {}
    assert notes["attribution_error"] < 1e-9
    assert metrics["engine.step_ms"] > 0 and metrics["odd.step_ms"] > 0
    assert metrics["dpp.step_ms"] > 0 and metrics["linalg.cholesky_calls"] > 0
    assert 0 < metrics["odd.peak_bsv"] and 0 < metrics["dpp.peak_bsv"]


def test_tracer_restores_every_patch():
    tracer = Tracer()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets()]
    with tracer.patched():
        during = [vars(owner)[attr] for owner, attr, _, _ in targets()]
    after = [vars(owner)[attr] for owner, attr, _, _ in targets()]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**run.END_TO_END, **run.PER_LAYER}


def test_command_prints_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "replay-mid", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "replay-mid", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
