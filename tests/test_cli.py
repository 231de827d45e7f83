import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divdiff import cli, harness, linalg
from divdiff import config as cfg
from divdiff.models import default_task
from divdiff.trace import trace_write


def write_config(path, **overrides):
    doc = {
        "schema": 1,
        "temperature": 1.0,
        "batch": 16,
        "seed": 0,
        "guidance": "none",
        "alpha": 16.0,
        "prompt": "default",
        "model": {"kind": "planted", "problem": 0},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestGenerate:
    def test_greedy_baseline_prints_identical_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", temperature=0.0)
        assert cli.main(["generate", "--config", str(config)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("sample")]
        assert len(lines) == 16
        bodies = {l.split(":", 1)[1] for l in lines}
        assert len(bodies) == 1
        assert "correct=False" in lines[0]

    def test_odd_guidance_diversifies_default_task(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        rc = cli.main(
            ["generate", "--config", str(config), "--set", "guidance=odd",
             "--set", "alpha=16"]
        )
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("sample")]
        bodies = {l.split(":", 1)[1].split("  ")[0] for l in lines}
        assert len(bodies) >= 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["generate", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("knob", ["temperature", "alpha", "tolerance", "jitter"])
    def test_non_finite_knob_exits_2(self, tmp_path, capsys, knob):
        config = write_config(tmp_path / "c.json")
        assert cli.main(["generate", "--config", str(config), "--set", f"{knob}=NaN"]) == 2
        assert f"{knob} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", [
        "steps=abc", "temperature=abc", "alpha=[1]", "feature_top_k=abc",
        "batch=1.5", "seed=true",
        # JSON strings never load as numbers, nor floats as integers
        'temperature="0.5"', 'batch="4"', 'seed="3"', 'steps="3"', 'feature_top_k="2"',
        "batch=16.0", "length=8.0",
    ])
    def test_malformed_knob_exits_2(self, tmp_path, capsys, assignment):
        config = write_config(tmp_path / "c.json")
        assert cli.main(["generate", "--config", str(config), "--set", assignment]) == 2
        key = assignment.split("=")[0]
        assert f"error: {key} must be" in capsys.readouterr().err

    def test_outputs_and_effective_config_written(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", batch=4, temperature=1, guidance="odd",
                              alpha=16)
        out = tmp_path / "out"
        rc = cli.main(
            ["generate", "--config", str(config), "--out", str(out),
             "--set", "seed=5"]
        )
        assert rc == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["seed"] == 5
        reports = list(out.glob("run_*.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert len(doc["outputs"]) == 4
        # float knobs given as JSON integers are reported as floats
        assert (doc["theta"], doc["alpha"]) == (1.0, 16.0)
        assert type(doc["theta"]) is float and type(doc["alpha"]) is float

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path / "c.json", batch=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("ODD_SEED", "31")
        cli.main(["generate", "--config", str(config), "--out", str(out_a)])
        monkeypatch.delenv("ODD_SEED")
        cli.main(["generate", "--config", str(config), "--out", str(out_b),
                  "--set", "seed=31"])
        a = json.loads(next(out_a.glob("run_*.json")).read_text())
        b = json.loads(next(out_b.glob("run_*.json")).read_text())
        assert a["outputs"] == b["outputs"]

    def test_explicit_task_file(self, tmp_path, capsys):
        task = default_task(4)
        (tmp_path / "task.json").write_text(json.dumps(task.to_json()))
        config = write_config(
            tmp_path / "c.json", batch=2, temperature=0.0,
            model={"kind": "planted", "task_path": "task.json"},
        )
        assert cli.main(["generate", "--config", str(config)]) == 0


class TestGradcheck:
    def test_fresh_checkout_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "feature-backprop: 120 instances, worst rel err 1.239e-09 (tolerance 1e-05) ok",
            "orthogonal-residual: 120 instances, worst rel err 1.922e-06 (tolerance 1e-05) ok",
            "determinantal: 120 instances, worst rel err 1.076e-07 (tolerance 1e-05) ok",
        ]

    def test_injected_sign_flip_detected(self, capsys, monkeypatch):
        true_vjp = linalg.softmax_vjp
        monkeypatch.setattr(linalg, "softmax_vjp",
                            lambda p, u, out=None: np.negative(true_vjp(p, u, out), out=out))
        assert cli.main(["gradcheck"]) == 1


class TestInvariance:
    def test_odd_reported_invariant(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", guidance="odd",
            invariance={"m": 4, "b1": 4, "b2": 8},
        )
        assert cli.main(["invariance", "--config", str(config)]) == 0
        assert "prefix-invariant=True" in capsys.readouterr().out

    def test_dpp_reported_variant(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", guidance="dpp", alpha=32.0, seed=1,
            invariance={"m": 4, "b1": 4, "b2": 8},
        )
        assert cli.main(["invariance", "--config", str(config)]) == 0
        assert "prefix-invariant=False" in capsys.readouterr().out


class TestConfigCasts:
    @pytest.mark.parametrize("command, assignment", [
        ("invariance", "invariance.m=abc"),
        ("invariance", "invariance.b1=1.5"),
        ("invariance", "invariance=3"),
        ("grid", 'grid.seeds=["x"]'),
        ("grid", "grid.seeds=3"),
        ("generate", "model.problem=abc"),
        ("generate", 'prompt=["x"]'),
        ("generate", "prompt=5"),
        ("gradcheck", "gradcheck_instances=abc"),
        ("gradcheck", "gradcheck_instances=0"),
        ("grid", "grid=3"),
        # JSON strings never load as numbers
        ("generate", 'model.problem="2"'),
        ("generate", 'prompt=["1"]'),
        ("grid", 'grid.seeds=["1"]'),
        ("grid", 'grid.problems=["0"]'),
        ("invariance", 'invariance.m="4"'),
        ("gradcheck", 'gradcheck_instances="5"'),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, command, assignment):
        config = write_config(tmp_path / "c.json")
        assert cli.main([command, "--config", str(config), "--set", assignment]) == 2
        key = assignment.split("=")[0]
        assert f"error: {key} must be" in capsys.readouterr().err

    def test_bigram_vocab_not_an_integer_exits_2(self, tmp_path, capsys):
        # model.problem is read for the report of every model kind
        for key, value in [("vocab", "abc"), ("vocab", "5"), ("problem", "2")]:
            config = write_config(tmp_path / "c.json", prompt="none", model={
                "kind": "bigram", "vocab": 5, "corpus": [[0, 1]], key: value})
            assert cli.main(["generate", "--config", str(config)]) == 2
            assert f"error: model.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("vocab", [0, -1])
    def test_bigram_vocab_below_one_exits_2(self, tmp_path, capsys, vocab):
        config = write_config(tmp_path / "c.json", prompt="none",
                              model={"kind": "bigram", "vocab": vocab, "corpus": [[]]})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: model.vocab must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [0, 1])
    def test_prompt_not_shorter_than_the_length_exits_2(self, tmp_path, capsys, extra):
        size = default_task(0).length + extra
        config = write_config(tmp_path / "c.json")
        prompt = json.dumps(list(range(1, size + 1)))
        assert cli.main(["generate", "--config", str(config), "--set", f"prompt={prompt}"]) == 2
        assert f"error: prompt has {size} tokens" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", [
        'grid.guidances=["bogus"]', "grid.temperatures=[-1]", "grid.alphas=[-3]",
        "grid.problems=[-1]",
    ])
    def test_bad_grid_value_exits_2_naming_the_key(self, tmp_path, capsys, assignment):
        # each of these ran as one failed cell and exited 0
        config = write_config(tmp_path / "c.json", batch=2, grid={
            "temperatures": [1.0], "alphas": [8.0], "guidances": ["odd"],
            "seeds": [0], "problems": [0],
        })
        assert cli.main(["grid", "--config", str(config), "--set", assignment]) == 2
        assert f"error: {assignment.split('=')[0]}" in capsys.readouterr().err

    def test_negative_problem_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        assert cli.main(["generate", "--config", str(config), "--set", "model.problem=-1"]) == 2
        assert "error: model.problem" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"kind": "bigram", "vocab": 5, "corpus_path": "missing.json"},
        {"kind": "planted", "task_path": "missing.json"},
        {"kind": "trace", "path": "missing.oddt"},
    ])
    def test_missing_model_file_exits_2(self, tmp_path, capsys, model):
        config = write_config(tmp_path / "c.json", prompt="none", model=model)
        assert cli.main(["generate", "--config", str(config)]) == 2
        key = next(k for k in model if k.endswith("path"))
        assert f"error: model.{key}: file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["corpus", "corpus_path"])
    @pytest.mark.parametrize("corpus", [5, [[0, "a"]], [[0.5, 1, 2], [True, 3]], [["0", "1"]]])
    def test_bad_corpus_exits_2(self, tmp_path, capsys, corpus, source):
        (tmp_path / "corpus.json").write_text(json.dumps(corpus))
        value = corpus if source == "corpus" else "corpus.json"
        config = write_config(tmp_path / "c.json", prompt="none",
                              model={"kind": "bigram", "vocab": 5, source: value})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: model.corpus must be" in capsys.readouterr().err

    def test_corpus_file_is_read(self, tmp_path, capsys):
        (tmp_path / "corpus.json").write_text("[[0, 1, 2, 3, 4, 0]]")
        config = write_config(tmp_path / "c.json", batch=2, length=6, prompt="none",
                              model={"kind": "bigram", "vocab": 5, "corpus_path": "corpus.json"})
        assert cli.main(["generate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.count("sample") == 2

    def test_corpus_file_that_is_not_json_exits_2(self, tmp_path, capsys):
        (tmp_path / "corpus.json").write_text("[[0, 1]")
        config = write_config(tmp_path / "c.json", prompt="none",
                              model={"kind": "bigram", "vocab": 5, "corpus_path": "corpus.json"})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: model.corpus_path" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, [1]])
    @pytest.mark.parametrize("kind, key", [
        ("trace", "path"), ("planted", "task_path"), ("bigram", "corpus_path"),
    ])
    def test_model_file_key_not_a_string_exits_2(self, tmp_path, capsys, kind, key, value):
        config = write_config(tmp_path / "c.json", prompt="none",
                              model={"kind": kind, "vocab": 5, key: value})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert f"error: model.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["task", "task_path"])
    def test_mistyped_task_field_exits_2(self, tmp_path, capsys, source):
        task = dict(default_task(0).to_json(), skew="0.85")
        (tmp_path / "task.json").write_text(json.dumps(task))
        config = write_config(tmp_path / "c.json", model={
            "kind": "planted", source: task if source == "task" else "task.json"})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: PlantedTask: skew must be" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", [True, 1.0, 2, "1"])
    def test_config_schema_not_the_integer_1_exits_2(self, tmp_path, capsys, schema):
        config = write_config(tmp_path / "c.json", schema=schema)
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: config schema" in capsys.readouterr().err

    def test_task_file_that_is_not_json_exits_2(self, tmp_path, capsys):
        (tmp_path / "task.json").write_text("{not json")
        config = write_config(tmp_path / "c.json",
                              model={"kind": "planted", "task_path": "task.json"})
        assert cli.main(["generate", "--config", str(config)]) == 2
        assert "error: model.task_path" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["generate.json", "grid.json"])
    def test_shipped_config_resolves(self, name):
        # the documented example configs load; nothing is generated
        path = Path(__file__).resolve().parents[1] / "configs" / name
        doc = cfg.load_config(path)
        model, task = cfg.build_model(doc, path.parent)
        config = cfg.generation_config(doc, model, cfg.resolve_prompt(doc, task))
        spec = cfg.grid_spec(doc)
        assert (config.batch, config.guidance, config.length) == (16, "none", task.length)
        assert spec.temperatures == doc.get("grid", cfg.DEFAULT_GRID)["temperatures"]
        assert spec.seeds == doc.get("grid", cfg.DEFAULT_GRID)["seeds"]


class TestReplayCommand:
    def test_replay_runs_trace(self, tmp_path, capsys, rng):
        blocks = rng.normal(size=(4, 2, 4, 6)).astype(np.float32)
        trace_write(tmp_path / "t.oddt", blocks)
        config = write_config(
            tmp_path / "c.json", batch=2, temperature=1.0, prompt=None,
            model={"kind": "trace", "path": "t.oddt"},
        )
        out = tmp_path / "out"
        assert cli.main(["replay", "--config", str(config), "--out", str(out)]) == 0
        outputs = json.loads((out / "replay_outputs.json").read_text())
        assert len(outputs) == 2 and len(outputs[0]) == 4

    def test_replay_runs_the_configured_prompt(self, tmp_path, capsys, rng):
        trace_write(tmp_path / "t.oddt", rng.normal(size=(4, 2, 4, 6)).astype(np.float32))
        config = write_config(tmp_path / "c.json", batch=2, prompt=[3],
                              model={"kind": "trace", "path": "t.oddt"})
        assert cli.main(["replay", "--config", str(config)]) == 0
        replayed = capsys.readouterr().out
        assert cli.main(["generate", "--config", str(config)]) == 0
        assert replayed == capsys.readouterr().out
        assert all(line.split(": ")[1].startswith("3 ") for line in replayed.splitlines())

    def test_trace_that_is_not_oddt_exits_2(self, tmp_path, capsys):
        (tmp_path / "t.oddt").write_bytes(b"garbage")
        config = write_config(tmp_path / "c.json", prompt=None,
                              model={"kind": "trace", "path": "t.oddt"})
        assert cli.main(["replay", "--config", str(config)]) == 2
        assert "error: model.path" in capsys.readouterr().err

    def test_replay_needs_trace_model(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        assert cli.main(["replay", "--config", str(config)]) == 2


@pytest.fixture(scope="module")
def grid_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    config = write_config(
        tmp / "c.json", batch=4,
        grid={
            "temperatures": [0.0, 1.0],
            "alphas": [8.0],
            "guidances": ["none", "odd"],
            "seeds": [0, 1],
            "problems": [0, 1],
        },
    )
    out = tmp / "out"
    rc = cli.main(["grid", "--config", str(config), "--out", str(out), "--jobs", "2"])
    assert rc == 0
    return out


class TestGridAndReport:
    def test_grid_artifacts_exist(self, grid_dir):
        assert (grid_dir / "aggregates.csv").is_file()
        assert (grid_dir / "pareto.svg").is_file()
        assert (grid_dir / "passk_curves.svg").is_file()
        # 2 theta x 2 seeds x 2 problems for each of the two guidances
        assert len(list(grid_dir.glob("run_*.json"))) == 16

    def test_report_idempotent(self, grid_dir, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["report", str(grid_dir), "--out", str(out1)]) == 0
        assert cli.main(["report", str(grid_dir), "--out", str(out2)]) == 0
        for name in ("aggregates.csv", "pareto.svg", "passk_curves.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # regenerated tables match the grid's own output byte for byte
        assert (out1 / "aggregates.csv").read_bytes() == (
            grid_dir / "aggregates.csv"
        ).read_bytes()

    def test_report_skips_malformed_with_warning(self, grid_dir, tmp_path, capsys):
        (grid_dir / "run_zzz_broken.json").write_text("{")
        try:
            rc = cli.main(["report", str(grid_dir), "--out", str(tmp_path / "r")])
            captured = capsys.readouterr()
            assert rc == 0
            assert "warning" in captured.err
        finally:
            (grid_dir / "run_zzz_broken.json").unlink()

    @pytest.mark.parametrize("key, value", [("problem", None), ("outputs", 5)])
    def test_report_skips_mistyped_field_with_warning(self, grid_dir, tmp_path, capsys,
                                                       key, value):
        results = tmp_path / "results"
        results.mkdir()
        good = sorted(grid_dir.glob("run_*.json"))[0]
        doc = json.loads(good.read_text())
        (results / good.name).write_text(json.dumps(doc))
        (results / "run_zzz_mistyped.json").write_text(json.dumps({**doc, key: value}))
        assert cli.main(["report", str(results)]) == 0
        err = capsys.readouterr().err
        assert "warning: skipping run_zzz_mistyped.json" in err
        assert "Traceback" not in err

    def test_report_reads_ungraded_generate_output(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.json", batch=4, length=6, prompt=None,
            model={"kind": "bigram", "vocab": 5, "corpus": [[0, 1, 2, 3, 4, 0]]},
        )
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_report_empty_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", str(empty)]) == 2


def test_grid_runs_the_configured_prompt(tmp_path, capsys):
    config = write_config(
        tmp_path / "c.json", batch=4, prompt=[5],
        grid={"temperatures": [1.0], "alphas": [8.0], "guidances": ["none", "odd"],
              "seeds": [0], "problems": [0, 1]},
    )
    out = tmp_path / "out"
    assert cli.main(["grid", "--config", str(config), "--out", str(out)]) == 0
    reports = [json.loads(p.read_text()) for p in out.glob("run_*.json")]
    assert len(reports) == 4
    for report in reports:
        assert all(seq[0] == 5 for seq in report["outputs"])


class TestProfileCommand:
    def test_profile_prints_stats(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", guidance="odd", batch=4)
        assert cli.main(["profile", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        for key in ("baseline_seconds", "guided_seconds", "overhead_fraction", "hook_seconds"):
            assert key in out

    def test_profile_runs_the_configured_prompt(self, tmp_path, capsys, monkeypatch):
        prompts = []
        real = harness.run_generation

        def spy(model, config, prompt=None, **kwargs):
            prompts.append(prompt)
            return real(model, config, prompt=prompt, **kwargs)

        monkeypatch.setattr(harness, "run_generation", spy)
        config = write_config(tmp_path / "c.json", guidance="odd", batch=2, prompt=[5])
        assert cli.main(["profile", "--config", str(config)]) == 0
        assert prompts and all(p == [5] for p in prompts)


def test_console_entry_point_subprocess(tmp_path):
    config = write_config(tmp_path / "c.json", batch=2, temperature=0.0)
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "divdiff.cli", "generate", "--config", str(config)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("sample") == 2
