from dataclasses import replace

import numpy as np
import pytest

import reference
from divdiff import harness
from divdiff.engine import GenerationConfig
from divdiff.errors import InvalidInputError
from divdiff.harness import (
    GridSpec,
    RunReport,
    grid_run,
    invariance_check,
    overhead_profile,
    pairwise_diversity,
    pass_at_k,
    run_single,
)
from divdiff.models import PlantedDenoiser, default_problem, default_task


def report(problem, flags, **kwargs):
    fields = dict(guidance="none", theta=0.0, alpha=0.0, seed=0)
    fields.update(kwargs)
    return RunReport(
        problem=problem,
        outputs=[[0]] * len(flags),
        correct=list(flags),
        **fields,
    )


class TestPassAtK:
    def test_first_output_correct_everywhere(self):
        reports = [report(p, [True, False, False]) for p in range(4)]
        assert pass_at_k(reports, 1) == 1.0

    def test_no_correct_outputs(self):
        reports = [report(p, [False] * 4) for p in range(3)]
        for k in range(1, 5):
            assert pass_at_k(reports, k) == 0.0

    def test_monotone_in_k(self, rng):
        reports = [
            report(p, list(rng.random(8) < 0.3)) for p in range(20)
        ]
        values = [pass_at_k(reports, k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_prefix_semantics(self):
        reports = [report(0, [False, True, False])]
        assert pass_at_k(reports, 1) == 0.0
        assert pass_at_k(reports, 2) == 1.0

    def test_k_larger_than_batch(self):
        with pytest.raises(InvalidInputError):
            pass_at_k([report(0, [True])], 2)


class TestPairwiseDiversity:
    def test_identical_outputs(self):
        assert pairwise_diversity([[1, 2, 3]] * 4) == 0.0

    def test_disjoint_token_sets(self):
        assert pairwise_diversity([[0, 0, 1], [2, 3, 3]]) == pytest.approx(1.0)

    def test_two_identical_one_disjoint(self):
        value = pairwise_diversity([[0, 1], [0, 1], [2, 3]])
        assert value == pytest.approx(2 / 3)

    def test_bounds_on_float_vectors(self, rng):
        for _ in range(25):
            rows = rng.normal(size=(5, 6))
            value = pairwise_diversity(rows)
            assert 0.0 <= value <= 2.0

    def test_scalar_multiples_have_zero_diversity(self):
        base = np.array([1.0, 2.0, 0.5])
        assert pairwise_diversity([base, 2 * base, 0.1 * base]) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_items(self):
        with pytest.raises(InvalidInputError):
            pairwise_diversity([[1, 2]])

    def test_matches_pair_loop_reference(self, rng):
        cases = []
        for _ in range(20):
            b = int(rng.integers(2, 9))
            seqs = rng.integers(0, 6, size=(b, 10))
            seqs[-1] = seqs[0]  # a repeated sequence
            cases.append(list(seqs))
            rows = rng.normal(size=(b, 7))
            cases.append(rows.copy())
            rows[int(rng.integers(b))] = 0.0  # an all-zero row
            cases.append(rows)
        for items in cases:
            assert abs(pairwise_diversity(items) - reference.pairwise_diversity(items)) <= 1e-12


class TestInvarianceCheck:
    def test_none_and_odd_invariant_dpp_not(self):
        task, prompt = default_problem(0)
        model = PlantedDenoiser(task)
        base = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length,
            batch=16, seed=4,
        )
        assert invariance_check(model, base, 4, 4, 8, prompt=prompt)
        odd = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length,
            batch=16, seed=4, guidance="odd", alpha=16.0,
        )
        assert invariance_check(model, odd, 4, 4, 8, prompt=prompt)
        dpp = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length,
            batch=16, seed=4, guidance="dpp", alpha=32.0,
        )
        broken = any(
            not invariance_check(
                model,
                GenerationConfig(
                    temperature=1.0, steps=task.length - 1, length=task.length,
                    batch=16, seed=s, guidance="dpp", alpha=32.0,
                ),
                4, 4, 8, prompt=prompt,
            )
            for s in range(5)
        )
        assert broken

    def test_bad_sizes(self):
        task = default_task(0)
        with pytest.raises(InvalidInputError):
            invariance_check(PlantedDenoiser(task), GenerationConfig(), 9, 8, 16)


def small_grid_config(task):
    return GenerationConfig(
        temperature=0.0, steps=task.length - 1, length=task.length, batch=4, seed=0
    )


class TestGridRun:
    def test_cell_count(self):
        spec = GridSpec(
            temperatures=[0.0, 1.0], alphas=[2.0, 8.0], guidances=["odd"],
            seeds=[0], problems=[0, 1, 2, 3, 4],
        )
        task = default_task(0)
        reports, aggregates = grid_run(spec, default_problem, small_grid_config(task))
        assert len(reports) == 20
        assert aggregates["failed_runs"] == 0

    def test_baseline_alpha_axis_collapses(self):
        spec = GridSpec(
            temperatures=[0.5], alphas=[2.0, 8.0, 16.0], guidances=["none"],
            seeds=[0], problems=[0],
        )
        task = default_task(0)
        reports, _ = grid_run(spec, default_problem, small_grid_config(task))
        assert len(reports) == 1 and reports[0].alpha == 0.0

    def test_failed_cell_recorded_not_fatal(self):
        spec = GridSpec(
            temperatures=[0.5], alphas=[2.0], guidances=["odd"],
            seeds=[0], problems=[0, 1],
        )

        def factory(problem):
            if problem == 1:
                raise RuntimeError("synthetic failure")
            return default_problem(problem)

        task = default_task(0)
        reports, aggregates = grid_run(spec, factory, small_grid_config(task))
        failed = [r for r in reports if r.failed]
        assert len(failed) == 1 and "synthetic failure" in failed[0].error
        assert aggregates["failed_runs"] == 1
        # the healthy cell still aggregates
        assert any(row["n"] == 1 for row in aggregates["rows"])

    def test_se_over_seeds(self):
        spec = GridSpec(
            temperatures=[1.0], alphas=[8.0], guidances=["odd"],
            seeds=[0, 1, 2, 3], problems=[0, 1, 2],
        )
        task = default_task(0)
        reports, aggregates = grid_run(spec, default_problem, small_grid_config(task))
        per_seed = {}
        for r in reports:
            per_seed.setdefault(r.seed, []).append(r)
        values = np.array(sorted(pass_at_k(v, 1) for v in per_seed.values()))
        row = next(r for r in aggregates["rows"] if r["k"] == 1)
        assert row["n"] == 4
        assert row["mean"] == pytest.approx(values.mean())
        assert row["se"] == pytest.approx(values.std(ddof=1) / 2.0)

    def test_parallel_jobs_match_serial(self):
        spec = GridSpec(
            temperatures=[0.5, 1.0], alphas=[8.0], guidances=["odd"],
            seeds=[0, 1], problems=[0, 1],
        )
        task = default_task(0)
        serial, agg1 = grid_run(spec, default_problem, small_grid_config(task), jobs=1)
        parallel, agg2 = grid_run(spec, default_problem, small_grid_config(task), jobs=4)
        assert [r.outputs for r in serial] == [r.outputs for r in parallel]
        assert agg1["rows"] == agg2["rows"]


def solo_reports(spec, factory, base):
    """Each cell of spec through run_single, the way one cell runs alone."""
    reports = []
    for guidance, theta, alpha, seed, problem in spec.cells():
        config = replace(base, guidance=guidance, temperature=theta, alpha=alpha, seed=seed)
        try:
            task, prompt = factory(problem)
            reports.append(run_single(task, config, problem=problem, prompt=prompt))
        except Exception as exc:
            reports.append(RunReport(problem=problem, guidance=guidance, theta=theta,
                                     alpha=alpha, seed=seed, failed=True,
                                     error=f"{type(exc).__name__}: {exc}"))
    return reports


def cell_fields(r):
    return (r.problem, r.guidance, r.theta, r.alpha, r.seed, r.outputs, r.correct,
            r.failed, r.error, len(r.per_step_guidance_seconds))


class TestGridStacking:
    SPEC = GridSpec(
        temperatures=[0.0, 1.0], alphas=[8.0], guidances=["none", "odd", "dpp"],
        seeds=[0, 5, 402], problems=[0, 1],
    )

    @staticmethod
    def base():
        task = default_task(0)
        return GenerationConfig(
            temperature=0.0, steps=task.length - 1, length=task.length, batch=4, seed=0
        )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_reports_equal_the_solo_cells(self, jobs):
        reports, _ = grid_run(self.SPEC, default_problem, self.base(), jobs=jobs)
        expected = solo_reports(self.SPEC, default_problem, self.base())
        assert [cell_fields(r) for r in reports] == [cell_fields(r) for r in expected]
        assert not any(r.failed for r in reports)

    def test_one_factory_call_and_one_run_per_stack(self, monkeypatch):
        calls, runs = [], []
        real_run = harness.run_generation

        def counting_run(*args, **kwargs):
            runs.append(kwargs.get("seeds"))
            return real_run(*args, **kwargs)

        def factory(problem):
            calls.append(problem)
            return default_problem(problem)

        monkeypatch.setattr(harness, "run_generation", counting_run)
        reports, _ = grid_run(self.SPEC, factory, self.base())
        assert len(reports) == 36  # per problem: 3 guidances x 2 thetas x 3 seeds
        assert len(calls) == 12 and runs == [[0, 5, 402]] * 12

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_a_raising_stack_reruns_its_cells_alone(self, monkeypatch, jobs):
        real_run = harness.run_generation

        def fragile_run(model, config, prompt=None, seeds=None):
            seeds = [config.seed] if seeds is None else list(seeds)
            if len(seeds) > 1:
                raise RuntimeError("stacked run failed")
            if seeds[0] == 5 and config.guidance == "odd":
                raise ValueError(f"seed {seeds[0]} failed alone")
            return real_run(model, config, prompt=prompt, seeds=seeds)

        def factory(problem):
            if problem == 1:
                raise KeyError(problem)
            return default_problem(problem)

        monkeypatch.setattr(harness, "run_generation", fragile_run)
        reports, aggregates = grid_run(self.SPEC, factory, self.base(), jobs=jobs)
        expected = solo_reports(self.SPEC, factory, self.base())
        assert [cell_fields(r) for r in reports] == [cell_fields(r) for r in expected]
        failed = [r for r in reports if r.failed]
        assert {r.error for r in failed} == {"KeyError: 1", "ValueError: seed 5 failed alone"}
        assert aggregates["failed_runs"] == len(failed) == 18 + 2


class TestRunSingle:
    def test_report_fields(self):
        task, prompt = default_problem(0)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length,
            batch=4, seed=2, guidance="odd", alpha=8.0,
        )
        rep = run_single(task, config, problem=9, prompt=prompt)
        assert rep.problem == 9 and rep.batch == 4
        assert len(rep.correct) == 4
        assert len(rep.per_step_guidance_seconds) == task.length - 1
        assert rep.guidance_seconds >= 0


class TestOverheadProfile:
    def test_baseline_config_reports_zero_overhead(self):
        task = default_task(0)
        config = GenerationConfig(
            temperature=0.5, steps=task.length, length=task.length, batch=2, seed=0
        )
        stats = overhead_profile(PlantedDenoiser(task), config, repeats=1)
        assert stats["overhead_fraction"] == 0.0
        assert stats["hook_seconds"] == 0.0

    def test_guided_profile_structure(self):
        task = default_task(0)
        config = GenerationConfig(
            temperature=0.5, steps=task.length, length=task.length, batch=4,
            seed=0, guidance="odd", alpha=8.0,
        )
        stats = overhead_profile(PlantedDenoiser(task), config, repeats=2)
        assert stats["guided_seconds"] > 0
        assert stats["hook_seconds"] > 0

    def test_profile_runs_the_given_prompt(self):
        task = default_task(0)
        seen = []

        class Recording(PlantedDenoiser):
            def predict(self, state, step):
                seen.append(state.prompt_len)
                return super().predict(state, step)

        config = GenerationConfig(
            temperature=0.5, steps=task.length - 2, length=task.length, batch=2,
            seed=0, guidance="odd", alpha=8.0,
        )
        overhead_profile(Recording(task), config, repeats=1, prompt=[5, 6])
        assert seen and set(seen) == {2}
