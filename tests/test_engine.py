from dataclasses import replace

import numpy as np
import pytest

from divdiff import engine
from divdiff.engine import (
    GenerationConfig,
    denoise_step,
    generate_batch,
    run_generation,
    sample_stream,
    sample_tokens,
    stream_uniforms,
)
from divdiff.errors import ContractError, InvalidInputError
from divdiff.models import PlantedDenoiser, default_problem, default_task
from divdiff.state import MaskState, Schedule, build_schedule
from divdiff.trace import ReplayDenoiser


class TestBuildSchedule:
    def test_even_split(self):
        sched = build_schedule(64, 32)
        assert sched.unmask_counts == [2] * 32

    def test_remainder_goes_first(self):
        assert build_schedule(7, 3).unmask_counts == [3, 2, 2]

    def test_one_per_step(self):
        assert build_schedule(5, 5).unmask_counts == [1] * 5

    def test_too_many_steps(self):
        with pytest.raises(InvalidInputError):
            build_schedule(3, 4)

    def test_counts_sum_to_length_and_never_rise(self):
        for length in range(1, 30):
            for steps in range(1, length + 1):
                counts = build_schedule(length, steps).unmask_counts
                assert len(counts) == steps and sum(counts) == length
                assert all(a >= b >= 1 for a, b in zip(counts, counts[1:] + [1]))

    @pytest.mark.parametrize("counts", [[2, 2], [2, -1, 3]])
    def test_schedule_needs_one_non_negative_count_per_step(self, counts):
        with pytest.raises(InvalidInputError):
            Schedule(steps=3, unmask_counts=counts)


class TestSampleTokens:
    def test_greedy_argmax(self):
        logits = np.array([[[1.0, 3.0, 2.0]]])
        proposals, conf = sample_tokens(logits, 0.0, [])
        assert proposals[0, 0] == 1 and conf[0, 0] == 1.0

    def test_greedy_tie_lowest_id(self):
        proposals, _ = sample_tokens(np.array([[[5.0, 5.0, 0.0]]]), 0.0, [])
        assert proposals[0, 0] == 0

    def test_uniform_draw_frequencies(self):
        # 100000 draws from uniform logits: each token within 3 binomial sigma
        v, n = 5, 100000
        logits = np.zeros((1, n, v))
        uniforms = sample_stream(123, 0, 0).random((1, n))
        proposals, conf = sample_tokens(logits, 1.0, uniforms)
        counts = np.bincount(proposals[0], minlength=v)
        sigma = np.sqrt((1 / v) * (1 - 1 / v) / n)
        assert np.all(np.abs(counts / n - 1 / v) <= 3 * sigma)
        np.testing.assert_allclose(conf, 1 / v)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_tokens(np.array([[[np.nan, 0.0]]]), 0.0, [])

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_tokens(np.zeros((1, 1, 2)), -0.1, [])

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, theta):
        with pytest.raises(InvalidInputError, match="temperature"):
            sample_tokens(np.zeros((1, 1, 2)), theta, np.full((1, 1), 0.5))

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_masked_rows_match_sampling_every_row(self, rng, theta):
        logits = rng.normal(size=(3, 7, 6))
        masked = rng.random((3, 7)) < 0.5
        uniforms = stream_uniforms(9, 3, [2], 7)[0]
        every_p, every_c = sample_tokens(logits, theta, uniforms)
        p, c = sample_tokens(logits, theta, uniforms, masked)
        np.testing.assert_array_equal(p[masked], every_p[masked])
        np.testing.assert_array_equal(c[masked], every_c[masked])
        assert np.all(p[~masked] == -1) and np.all(np.isneginf(c[~masked]))


class FixedDenoiser:
    """Returns a constant logits tensor regardless of the state."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)
        self.vocab = self.logits.shape[-1]

    def predict(self, state, step):
        b = state.batch
        return np.broadcast_to(self.logits, (b,) + self.logits.shape[-2:]).copy()


class TestDenoiseStep:
    def test_single_step_commits_everything(self, rng):
        logits = rng.normal(size=(1, 6, 5))
        model = FixedDenoiser(logits[0])
        config = GenerationConfig(temperature=0.0, steps=1, length=6, batch=1)
        state = MaskState.fully_masked(1, 6, 5)
        out = denoise_step(model, state, 0, config, build_schedule(6, 1))
        assert not out.masked.any()
        np.testing.assert_array_equal(out.realized[0], np.argmax(logits[0], axis=-1))

    def test_commit_count_exact(self, rng):
        sched = build_schedule(10, 4)
        model = FixedDenoiser(rng.normal(size=(10, 7)))
        config = GenerationConfig(temperature=1.0, steps=4, length=10, batch=3)
        state = MaskState.fully_masked(3, 10, 7)
        for t in range(4):
            new = denoise_step(model, state, t, config, sched)
            committed = (state.masked & ~new.masked).sum(axis=1)
            assert np.all(committed == sched.unmask_counts[t])
            state = new

    def test_shape_mismatch_is_contract_error(self):
        model = FixedDenoiser(np.zeros((4, 3)))
        config = GenerationConfig(steps=2, length=6, batch=1)
        state = MaskState.fully_masked(1, 6, 3)
        with pytest.raises(ContractError):
            denoise_step(model, state, 0, config, build_schedule(6, 2))

    @pytest.mark.parametrize("steps_per_block", [1, 3, None])
    def test_lone_steps_match_run_generation(self, monkeypatch, steps_per_block):
        # run_generation draws uniforms a block of steps ahead (11 steps:
        # eleven blocks, 3+3+3+2, or one); a lone denoise_step draws its own
        task, prompt = default_problem(2)
        config = GenerationConfig(
            temperature=1.3, steps=task.length - 1, length=task.length, batch=5, seed=-3
        )
        if steps_per_block is not None:
            monkeypatch.setattr(engine, "_BLOCK_DRAWS", steps_per_block * 5 * task.length)
        model = PlantedDenoiser(task)
        run = run_generation(model, config, prompt=prompt)
        state = MaskState.fully_masked(5, task.length, task.vocab, prompt)
        sched = build_schedule(task.length - len(prompt), config.steps)
        for t in range(config.steps):
            state = denoise_step(model, state, t, config, sched)
        np.testing.assert_array_equal(state.realized, run.sequences)

    def test_alpha_zero_guidance_matches_none(self):
        task = default_task(3)
        model = PlantedDenoiser(task)
        base = GenerationConfig(
            temperature=1.0, steps=task.length, length=task.length, batch=4, seed=9
        )
        plain = generate_batch(model, base)
        guided = generate_batch(
            model,
            GenerationConfig(
                temperature=1.0, steps=task.length, length=task.length, batch=4,
                seed=9, guidance="odd", alpha=0.0,
            ),
        )
        for a, b in zip(plain, guided):
            np.testing.assert_array_equal(a, b)


class TestGenerateBatch:
    def test_greedy_collapse(self):
        task = default_task(0)
        config = GenerationConfig(
            temperature=0.0, steps=task.length, length=task.length, batch=5, seed=1
        )
        seqs = generate_batch(PlantedDenoiser(task), config)
        for seq in seqs[1:]:
            np.testing.assert_array_equal(seq, seqs[0])
        np.testing.assert_array_equal(seqs[0], task.templates[0])

    def test_deterministic_given_seed(self):
        task = default_task(1)
        config = GenerationConfig(
            temperature=1.5, steps=task.length, length=task.length, batch=6, seed=77
        )
        first = generate_batch(PlantedDenoiser(task), config)
        second = generate_batch(PlantedDenoiser(task), config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_no_mask_in_output_and_commitment_is_final(self):
        task, prompt = default_problem(2)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length, batch=4, seed=5
        )
        states = []

        def recorder(logits, state, remaining):
            states.append(state.copy())
            return logits

        run = run_generation(PlantedDenoiser(task), config, prompt=prompt, guidance=recorder)
        assert run.sequences.shape == (4, task.length)
        for seq in run.sequences:
            assert seq.max() < task.vocab
        # positions committed at step t never change afterwards
        for earlier, later in zip(states, states[1:]):
            done = ~earlier.masked
            assert np.all(~later.masked[done])
            np.testing.assert_array_equal(later.realized[done], earlier.realized[done])

    def test_prefix_invariance_under_odd(self):
        task, prompt = default_problem(4)
        base = dict(
            temperature=1.0, steps=task.length - 1, length=task.length,
            seed=13, guidance="odd", alpha=16.0,
        )
        model = PlantedDenoiser(task)
        small = generate_batch(model, GenerationConfig(batch=8, **base), prompt=prompt)
        large = generate_batch(model, GenerationConfig(batch=16, **base), prompt=prompt)
        for i in range(8):
            np.testing.assert_array_equal(small[i], large[i])

    def test_per_sample_streams_do_not_depend_on_batch(self):
        task = default_task(5)
        base = dict(temperature=2.0, steps=task.length, length=task.length, seed=21)
        model = PlantedDenoiser(task)
        small = generate_batch(model, GenerationConfig(batch=3, **base))
        large = generate_batch(model, GenerationConfig(batch=9, **base))
        for i in range(3):
            np.testing.assert_array_equal(small[i], large[i])

    def test_prompt_positions_never_masked(self):
        task, prompt = default_problem(6)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length, batch=2, seed=0
        )
        run = run_generation(PlantedDenoiser(task), config, prompt=prompt)
        for seq in run.sequences:
            assert seq[0] == prompt[0]

    def test_prompt_too_long(self):
        task = default_task(0)
        config = GenerationConfig(steps=2, length=4, batch=1)
        with pytest.raises(InvalidInputError):
            run_generation(PlantedDenoiser(task), config, prompt=np.zeros(4, dtype=int))


class CountingDenoiser(PlantedDenoiser):
    """Planted denoiser that records the batch of every predict call."""

    def __init__(self, task):
        super().__init__(task)
        self.batches = []

    def predict(self, state, step):
        self.batches.append(state.batch)
        return super().predict(state, step)


class TestStackedSeeds:
    @pytest.mark.parametrize("guidance", ["none", "odd", "dpp"])
    @pytest.mark.parametrize("theta", [0.0, 1.5])
    @pytest.mark.parametrize("prompted", [False, True])
    @pytest.mark.parametrize("top_k", [None, 3])
    @pytest.mark.parametrize("seeds", [[402], [7, -3, 402]])
    def test_rows_equal_the_solo_runs(self, guidance, theta, prompted, top_k, seeds):
        task, prompt = default_problem(2)
        prompt = prompt if prompted else None
        config = GenerationConfig(
            temperature=theta, steps=task.length - 1, length=task.length, batch=4, seed=0,
            guidance=guidance, alpha=16.0, feature_top_k=top_k,
        )
        model = PlantedDenoiser(task)
        stacked = run_generation(model, config, prompt=prompt, seeds=seeds)
        assert len(stacked.sequences) == 4 * len(seeds)
        for j, seed in enumerate(seeds):
            solo = run_generation(model, replace(config, seed=seed), prompt=prompt)
            np.testing.assert_array_equal(np.stack(stacked.sequences[4 * j:4 * j + 4]),
                                          np.stack(solo.sequences))

    @pytest.mark.parametrize("guidance", ["none", "odd", "dpp"])
    def test_config_seed_alone_equals_the_default_call(self, guidance):
        task, prompt = default_problem(3)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length, batch=4, seed=11,
            guidance=guidance, alpha=16.0,
        )
        model = PlantedDenoiser(task)
        default = run_generation(model, config, prompt=prompt)
        explicit = run_generation(model, config, prompt=prompt, seeds=[config.seed])
        np.testing.assert_array_equal(explicit.sequences, default.sequences)
        assert len(explicit.guidance_seconds) == len(default.guidance_seconds)

    def test_one_predict_and_one_hook_call_per_step(self):
        task, prompt = default_problem(1)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length, batch=4, seed=0,
            guidance="odd", alpha=16.0,
        )
        model = CountingDenoiser(task)
        run = run_generation(model, config, prompt=prompt, seeds=[1, 2, 3])
        assert model.batches == [12] * config.steps
        assert len(run.guidance_seconds) == config.steps

    def test_split_charges_each_batch_its_share(self):
        task, prompt = default_problem(1)
        config = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length, batch=4, seed=0,
            guidance="dpp", alpha=16.0,
        )
        run = run_generation(PlantedDenoiser(task), config, prompt=prompt, seeds=[5, 6])
        parts = run.split(2)
        for j, part in enumerate(parts):
            assert np.shares_memory(part.sequences, run.sequences)
            np.testing.assert_array_equal(part.sequences, run.sequences[4 * j:4 * j + 4])
            assert part.guidance_seconds == [s / 2 for s in run.guidance_seconds]
            assert part.total_seconds == run.total_seconds / 2

    @pytest.mark.parametrize("parts", [0, -1, 3, True, 2.0])
    def test_split_rejects_parts_that_do_not_divide_the_rows(self, parts):
        task = default_task(0)
        config = GenerationConfig(steps=2, length=task.length, batch=4)
        run = run_generation(PlantedDenoiser(task), config, seeds=[1, 2])
        with pytest.raises(InvalidInputError, match="GenerationRun.split"):
            run.split(parts)

    @pytest.mark.parametrize("seeds", [[], (), [1.0], [1, 2.5], [True], [1, False], ["3"], 4])
    def test_rejects_bad_seeds(self, seeds):
        task = default_task(0)
        config = GenerationConfig(steps=2, length=task.length, batch=2)
        with pytest.raises(InvalidInputError, match="seeds"):
            run_generation(PlantedDenoiser(task), config, seeds=seeds)

    def test_numpy_integer_seeds_are_accepted(self):
        task = default_task(0)
        config = GenerationConfig(temperature=1.0, steps=2, length=task.length, batch=2, seed=3)
        model = PlantedDenoiser(task)
        stacked = run_generation(model, config, seeds=np.array([3, 4]))
        solo = run_generation(model, config)
        np.testing.assert_array_equal(np.stack(stacked.sequences[:2]), np.stack(solo.sequences))

    def test_replay_model_names_both_shapes(self):
        blocks = np.zeros((3, 4, 5, 6), dtype=np.float32)
        config = GenerationConfig(temperature=1.0, steps=3, length=5, batch=4, seed=0)
        with pytest.raises(InvalidInputError, match=r"\(4, 5\).*\(8, 5\)"):
            run_generation(ReplayDenoiser(blocks), config, seeds=[1, 2])


class TestConfigValidation:
    def test_rejects_bad_guidance(self):
        with pytest.raises(InvalidInputError):
            GenerationConfig(guidance="both")

    def test_rejects_negative_temperature(self):
        with pytest.raises(InvalidInputError):
            GenerationConfig(temperature=-1.0)

    @pytest.mark.parametrize("knob", ["temperature", "alpha", "tolerance", "jitter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, pytest.param(10 ** 400, id="huge-int")])
    def test_rejects_non_finite_knob(self, knob, value):
        with pytest.raises(InvalidInputError, match=f"{knob} must be finite"):
            GenerationConfig(**{knob: value})

    @pytest.mark.parametrize("knob", ["steps", "length", "batch", "seed", "feature_top_k"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_knob(self, knob, value):
        with pytest.raises(InvalidInputError, match=f"{knob} must be an integer"):
            GenerationConfig(**{knob: value})

    @pytest.mark.parametrize("knob", ["temperature", "alpha", "tolerance", "jitter"])
    @pytest.mark.parametrize("value", [True, "1.0"])
    def test_rejects_bool_or_non_number_float_knob(self, knob, value):
        with pytest.raises(InvalidInputError, match=f"{knob} must be a number"):
            GenerationConfig(**{knob: value})

    def test_accepts_numpy_numbers(self):
        config = GenerationConfig(steps=np.int64(3), length=np.int32(4), batch=np.uint8(2),
                                  seed=np.int64(7), feature_top_k=np.int16(2),
                                  temperature=np.float32(0.5), alpha=np.int64(8))
        assert config.steps == 3 and config.feature_top_k == 2 and config.alpha == 8
        # the float knobs are stored as Python floats, whatever number type came in
        config = replace(config, tolerance=1, jitter=np.float16(0.5))
        floats = (config.temperature, config.alpha, config.tolerance, config.jitter)
        assert [type(v) for v in floats] == [float] * 4 and floats == (0.5, 8.0, 1.0, 0.5)
