import json

import numpy as np
import pytest

from divdiff.engine import GenerationConfig
from divdiff.errors import InvalidInputError
from divdiff.harness import GridSpec, RunReport, grid_run
from divdiff.models import default_problem, default_task
from divdiff.reporting import (
    aggregate_reports,
    format_csv,
    load_reports,
    regenerate,
    write_artifacts,
    write_reports,
)


@pytest.fixture(scope="module")
def grid_outputs():
    spec = GridSpec(
        temperatures=[0.0, 1.0], alphas=[8.0], guidances=["none", "odd"],
        seeds=[0, 1], problems=[0, 1, 2],
    )
    task = default_task(0)
    config = GenerationConfig(
        temperature=0.0, steps=task.length - 1, length=task.length, batch=4, seed=0
    )
    return grid_run(spec, default_problem, config)


def test_round_trip_reproduces_tables_bitwise(grid_outputs, tmp_path):
    reports, aggregates = grid_outputs
    write_reports(reports, tmp_path / "results")
    loaded = load_reports(tmp_path / "results")
    assert len(loaded) == len(reports)
    regenerated = aggregate_reports(loaded)
    assert format_csv(regenerated["rows"]) == format_csv(aggregates["rows"])


def test_report_regeneration_idempotent(grid_outputs, tmp_path):
    reports, aggregates = grid_outputs
    results = tmp_path / "results"
    write_reports(reports, results)
    first = regenerate(results, tmp_path / "out1")
    second = regenerate(results, tmp_path / "out2")
    for key in ("csv", "passk", "pareto"):
        assert first[key].read_bytes() == second[key].read_bytes()


def test_pareto_has_one_series_per_guidance(grid_outputs, tmp_path):
    _, aggregates = grid_outputs
    paths = write_artifacts(aggregates, tmp_path)
    svg = paths["pareto"].read_text()
    assert 'id="series-none"' in svg and 'id="series-odd"' in svg
    curves = paths["passk"].read_text()
    assert 'id="series-none"' in curves and 'id="series-odd"' in curves


def test_malformed_report_skipped_with_warning(grid_outputs, tmp_path):
    reports, _ = grid_outputs
    results = tmp_path / "results"
    write_reports(reports, results)
    (results / "run_broken.json").write_text("{not json")
    (results / "run_wrong_schema.json").write_text(json.dumps({"schema": 99}))
    warnings = []
    loaded = load_reports(results, warn=warnings.append)
    assert len(loaded) == len(reports)
    assert len(warnings) == 2


@pytest.mark.parametrize("key, value", [
    ("correct", ["false"] * 4),  # the batch's length; bool("false") is True
    ("per_step_guidance_seconds", "ab"),
    ("failed", "false"),  # bool("false") is True: a good run loaded as failed
    ("outputs", [[1.9, "2"]] * 4),  # int() made these [1, 2]
    ("outputs", [[True, 2]] * 4),
    ("seed", 2.9),  # int() made these 2 and 1: a run merged into another seed's cell
    ("seed", True),
    ("problem", "4"),
    ("theta", "nan"),  # float() made these a NaN-theta row and an infinite alpha
    ("theta", float("nan")),
    ("alpha", "1e999"),
    ("alpha", float("inf")),
    ("guidance_seconds", False),
    ("total_seconds", "0.5"),
    ("guidance", 7),  # str() made this "7"
    ("guidance", "ddp"),
])
def test_report_with_mistyped_list_skipped_with_warning(grid_outputs, tmp_path, key, value):
    reports, _ = grid_outputs
    doc = reports[0].to_json()
    doc[key] = value
    with pytest.raises(InvalidInputError, match=key):
        RunReport.from_json(doc)
    results = tmp_path / "results"
    write_reports(reports, results)
    (results / "run_mistyped.json").write_text(json.dumps(doc))
    warnings = []
    assert len(load_reports(results, warn=warnings.append)) == len(reports)
    assert len(warnings) == 1 and key in warnings[0]


def test_schema_1_document_with_final_features_loads(grid_outputs, tmp_path):
    # runs written before final_features was dropped carry it; it is ignored
    report = grid_outputs[0][0]
    doc = dict(report.to_json(), final_features=[[0.0, 1.0]] * report.batch)
    (tmp_path / "run_old.json").write_text(json.dumps(doc))
    warnings = []
    (loaded,) = load_reports(tmp_path, warn=warnings.append)
    assert warnings == []
    assert loaded == report


def test_written_report_has_no_final_features(grid_outputs, tmp_path):
    (path,) = write_reports(grid_outputs[0][:1], tmp_path)
    assert "final_features" not in json.loads(path.read_text())


def test_written_report_document_keeps_its_key_order(tmp_path):
    report = RunReport(problem=3, guidance="odd", theta=0.5, alpha=8.0, seed=1,
                       outputs=[[4, 2]], correct=[True], guidance_seconds=0.25,
                       total_seconds=1.5, per_step_guidance_seconds=[0.25])
    (path,) = write_reports([report], tmp_path)
    assert path.read_text() == (
        '{"schema": 1, "problem": 3, "guidance": "odd", "theta": 0.5, "alpha": 8.0, '
        '"seed": 1, "outputs": [[4, 2]], "correct": [true], "guidance_seconds": 0.25, '
        '"total_seconds": 1.5, "per_step_guidance_seconds": [0.25], "failed": false, '
        '"error": ""}\n'
    )


def test_ungraded_reports_load_and_stay_out_of_pass_at_k(grid_outputs, tmp_path):
    reports, aggregates = grid_outputs
    ungraded = RunReport(problem=7, guidance="odd", theta=1.0, alpha=8.0, seed=0,
                         outputs=reports[0].outputs)
    write_reports([ungraded], tmp_path)
    warnings = []
    assert load_reports(tmp_path, warn=warnings.append) == [ungraded]
    assert warnings == []
    mixed = aggregate_reports(list(reports) + [ungraded])
    assert format_csv(mixed["rows"]) == format_csv(aggregates["rows"])
    assert mixed["failed_runs"] == 0


def test_aggregate_reads_an_iterator_once():
    good = [RunReport(problem=0, guidance="none", theta=0.0, alpha=0.0, seed=seed,
                      outputs=[[0]], correct=[seed == 0]) for seed in range(3)]
    failed = RunReport(problem=0, guidance="none", theta=0.0, alpha=0.0, seed=3,
                       failed=True, error="RuntimeError: boom")
    from_list = aggregate_reports(good + [failed])
    from_iter = aggregate_reports(iter(good + [failed]))
    assert from_iter["failed_runs"] == from_list["failed_runs"] == 1
    assert from_iter["rows"] == from_list["rows"]


def test_empty_results_dir_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        regenerate(tmp_path, tmp_path / "out")


def test_csv_layout(grid_outputs):
    _, aggregates = grid_outputs
    lines = format_csv(aggregates["rows"]).splitlines()
    assert lines[0] == "guidance,theta,alpha,k,mean,se,n"
    assert len(lines) == len(aggregates["rows"]) + 1
    first = lines[1].split(",")
    assert first[0] in ("none", "odd")
    float(first[4]), float(first[5])  # mean and se parse
