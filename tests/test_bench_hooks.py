"""The benchmark tracer still finds and counts every library name it patches.

benchmarks/tracing.py wraps divdiff functions by name. It is loaded here
as it stands, without changes, so that renaming a traced function or
changing what odd_losses returns fails in the library's own tests and not
only in the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import random_state
from divdiff import engine, harness, odd
from divdiff.features import FeatureSet
from divdiff.models import default_problem, default_task
from divdiff.trace import ReplayDenoiser

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_hooks_run_clean():
    tracing = load_tracing()
    gen = np.random.default_rng(5)
    logits = gen.normal(0.0, 1.5, size=(6, 5, 9))
    state = random_state(gen, 6, 5, 9)
    tracer = tracing.Tracer()
    with tracer.patched():
        for guidance in ("odd", "dpp"):
            config = engine.GenerationConfig(steps=4, length=5, batch=6, guidance=guidance,
                                             alpha=8.0, anneal="off")
            engine.make_guidance_hook(config)(logits, state, 3)
    assert tracer.missing == [] and tracer.hook_errors == {}
    assert tracer.counts["calls:odd.step"] == 1 and tracer.counts["calls:dpp.step"] == 1
    assert tracer.counts["calls:odd.project"] > 0
    assert tracer.counts["odd.candidates"] == 5


def test_odd_losses_lists_one_direction_per_candidate():
    # the tracer's odd.active_share reads odd_losses(...)[1]: one entry per
    # sample after the first, None where the residual is within tolerance
    features = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    fs = FeatureSet(features, np.zeros(features.shape, dtype=np.int64), np.ones(4))
    directions = odd.odd_losses(fs, 1e-8)[1]
    assert len(directions) == 3
    assert [d is None for d in directions] == [False, True, False]


def test_active_share_counts_repeats_as_inactive(monkeypatch):
    # at theta 0 every sample of a batch starts as the same argmax, so odd
    # sees exact repeats; the tracer must still count one candidate per
    # sample after the first and one active direction per non-None entry
    tracing = load_tracing()
    seen, odd_losses = [], odd.odd_losses

    def recorded(fs, tolerance):
        result = odd_losses(fs, tolerance)
        seen.append((fs.features, result[1]))
        return result

    monkeypatch.setattr(odd, "odd_losses", recorded)
    task = default_task(0)
    base = engine.GenerationConfig(steps=task.length - 1, length=task.length, batch=4)
    spec = harness.GridSpec(temperatures=[0.0, 1.0], alphas=[16.0], guidances=["odd"],
                            seeds=[0, 1], problems=[0])
    tracer = tracing.Tracer()
    with tracer.patched():
        reports, _ = harness.grid_run(spec, default_problem, base)
    assert not any(report.failed for report in reports)
    assert tracer.counts["calls:odd.losses"] == len(seen) > 0
    assert tracer.counts["odd.candidates"] == 3 * len(seen)
    assert tracer.counts["odd.active"] == sum(d is not None for _, ds in seen for d in ds)
    repeats = [(i, d) for rows, ds in seen for i, d in enumerate(ds, start=1)
               if any(rows[i].tobytes() == rows[j].tobytes() for j in range(i))]
    assert repeats and all(d is None for _, d in repeats)
    assert tracer.counts["odd.active"] > 0


# Spans whose call sites no run reaches any more, until the tracer is
# updated: runs draw uniforms through stream_uniforms, not sample_stream;
# the feature pass no longer calls quality_scores; and grid_run reaches
# run_generation through its stacks, not through run_single.
STRANDED = {"engine.rng", "features.quality", "harness.cell"}


def test_a_grid_and_a_replay_run_reach_every_span():
    tracing = load_tracing()
    task = default_task(0)
    base = engine.GenerationConfig(temperature=1.0, steps=task.length - 1, length=task.length,
                                   batch=4)
    spec = harness.GridSpec(temperatures=[1.0], alphas=[16.0], guidances=["none", "odd", "dpp"],
                            seeds=[0, 1], problems=[0])
    blocks = np.random.default_rng(3).normal(size=(3, 4, 5, 9)).astype(np.float32)
    replay = engine.GenerationConfig(temperature=1.0, steps=3, length=5, batch=4,
                                     guidance="odd", alpha=16.0)
    tracer = tracing.Tracer()
    with tracer.patched():
        reports, _ = harness.grid_run(spec, default_problem, base)
        engine.run_generation(ReplayDenoiser(blocks), replay)
    assert not any(report.failed for report in reports)
    assert tracer.missing == [] and tracer.hook_errors == {}
    names = {name for _, _, name, _ in tracing.targets()} - STRANDED
    assert sorted(name for name in names if tracer.counts[f"calls:{name}"] == 0) == []
