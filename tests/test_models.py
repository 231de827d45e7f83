import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_state
from divdiff.engine import GenerationConfig, generate_batch
from divdiff.errors import InvalidInputError
from divdiff.models import (
    PlantedDenoiser,
    PlantedTask,
    bigram_train,
    check_answer,
    default_problem,
    default_task,
)
from divdiff.state import MaskState, mask_token


def tiny_task(skew=0.85, noise_floor=1e-3):
    templates = np.array(
        [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [4, 5, 2, 3],
        ]
    )
    return PlantedTask(8, 4, templates, frozenset({1}), skew, noise_floor)


def posterior_oracle(task, realized, masked):
    """Brute-force template posterior by enumeration."""
    prior = task.prior()
    weights = []
    for m in range(task.num_templates):
        ok = all(masked[s] or task.templates[m, s] == realized[s] for s in range(task.length))
        weights.append(prior[m] if ok else 0.0)
    total = sum(weights)
    if total == 0:
        return prior
    return np.asarray(weights) / total


def mixture_oracle(task, posterior):
    probs = np.zeros((task.length, task.vocab))
    for m, w in enumerate(posterior):
        for s in range(task.length):
            probs[s, task.templates[m, s]] += w
    return (1 - task.noise_floor) * probs + task.noise_floor / task.vocab


class TestPlantedPredict:
    def test_rows_normalized(self, rng):
        task = default_task(0)
        state = MaskState.fully_masked(3, task.length, task.vocab)
        probs = np.exp(PlantedDenoiser(task).predict(state, 0))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_skew_dominates_when_fully_masked(self):
        task = tiny_task(skew=0.9)
        state = MaskState.fully_masked(1, 4, 8)
        logits = PlantedDenoiser(task).predict(state, 0)
        np.testing.assert_array_equal(np.argmax(logits[0], axis=-1), task.templates[0])

    def test_committed_evidence_identifies_template(self):
        task = tiny_task()
        # committing token 6 at position 2 is unique to template 1
        masked = np.array([[True, True, False, True]])
        realized = np.full((1, 4), mask_token(8))
        realized[0, 2] = 6
        state = MaskState(masked, realized, 8)
        post = posterior_oracle(task, realized[0], masked[0])
        np.testing.assert_allclose(post, [0.0, 1.0, 0.0])
        logits = PlantedDenoiser(task).predict(state, 0)
        np.testing.assert_allclose(
            np.exp(logits[0]), mixture_oracle(task, post), atol=1e-12
        )
        np.testing.assert_array_equal(
            np.argmax(logits[0], axis=-1), task.templates[1]
        )

    def test_inconsistent_evidence_falls_back_to_prior(self):
        task = tiny_task()
        masked = np.array([[False, True, True, True]])
        realized = np.full((1, 4), mask_token(8))
        realized[0, 0] = 7  # matches no template at position 0
        state = MaskState(masked, realized, 8)
        logits = PlantedDenoiser(task).predict(state, 0)
        np.testing.assert_allclose(
            np.exp(logits[0]), mixture_oracle(task, task.prior()), atol=1e-12
        )

    def test_greedy_limit_emits_template_zero(self):
        task = default_task(7)
        sharp = PlantedTask(
            task.vocab, task.length, task.templates, task.correct,
            skew=0.999, noise_floor=1e-12,
        )
        config = GenerationConfig(
            temperature=0.0, steps=task.length, length=task.length, batch=2, seed=0
        )
        for seq in generate_batch(PlantedDenoiser(sharp), config):
            np.testing.assert_array_equal(seq, task.templates[0])


@st.composite
def answer_stacks(draw):
    """(task, stack): random rows mixed with correct templates, their
    one-token near misses and template 0."""
    task = default_task(draw(st.integers(0, 50)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = gen.integers(0, task.vocab, size=(draw(st.integers(1, 12)), task.length))
    for row in stack:
        kind = gen.integers(4)
        if kind < 2:  # a correct template, or one token off it
            row[:] = task.templates[gen.choice(sorted(task.correct))]
        if kind == 1:
            p = gen.integers(task.length)
            row[p] = (row[p] + gen.integers(1, task.vocab)) % task.vocab
        if kind == 2:
            row[:] = task.templates[0]
    return task, stack


class TestCheckAnswer:
    @settings(max_examples=60, deadline=None)
    @given(answer_stacks())
    def test_stack_matches_the_per_sample_oracle(self, case):
        task, stack = case
        flags = check_answer(task, stack)
        expected = [reference.check_answer(task, seq) for seq in stack]
        assert flags.dtype == bool and flags.tolist() == expected
        for seq, want in zip(stack, expected):
            got = check_answer(task, seq)
            assert type(got) is bool and got == want

    @pytest.mark.parametrize("seq", [[4, 5, 6], [4, 5, 6, 7, 4], [4, 5, -1, 7], [4, 5, 6, 8]])
    def test_rejects_bad_outputs_at_both_ranks(self, seq):
        task = tiny_task()
        stack = np.stack([np.resize(task.templates[1], len(seq)), seq])
        for output in (seq, stack, stack[None]):
            with pytest.raises(InvalidInputError, match="check_answer"):
                check_answer(task, output)

    def test_correct_template(self):
        task = tiny_task()
        assert check_answer(task, task.templates[1])

    def test_incorrect_template(self):
        task = tiny_task()
        assert not check_answer(task, task.templates[0])

    def test_single_token_difference_fails(self):
        task = tiny_task()
        nearly = task.templates[1].copy()
        nearly[0] = (nearly[0] + 1) % task.vocab
        assert not check_answer(task, nearly)

    def test_unrealized_output_rejected(self):
        task = tiny_task()
        with pytest.raises(InvalidInputError):
            check_answer(task, [0, 1, 2, mask_token(task.vocab)])


class TestTaskValidation:
    def test_duplicate_templates_rejected(self):
        with pytest.raises(InvalidInputError):
            PlantedTask(4, 2, np.array([[0, 1], [0, 1]]), frozenset({1}))

    def test_correct_set_must_exist(self):
        with pytest.raises(InvalidInputError):
            PlantedTask(4, 2, np.array([[0, 1], [2, 3]]), frozenset({5}))

    def test_json_round_trip(self):
        task = default_task(3)
        loaded = PlantedTask.from_json(json.loads(json.dumps(task.to_json())))
        np.testing.assert_array_equal(loaded.templates, task.templates)
        assert loaded.correct == task.correct
        assert loaded.skew == task.skew

    def test_bad_document(self):
        with pytest.raises(InvalidInputError):
            PlantedTask.from_json({"vocab": 4})

    @pytest.mark.parametrize("key, value", [
        ("vocab", 48.9),  # int() loaded these as 48 and 1
        ("vocab", True),
        ("length", "12"),
        ("templates", "cast"),
        ("templates", [[44.7] * 12] * 8),  # np.asarray(dtype=int64) loaded 44
        ("templates", [[True] * 12] * 8),
        ("correct", [True, 2.5]),  # int() loaded {1, 2}
        ("correct", 2),
        ("skew", "0.5"),  # float() loaded 0.5
        ("skew", False),
        ("skew", float("nan")),
        ("noise_floor", None),
        ("noise_floor", 10 ** 400),
    ])
    def test_mistyped_field_named(self, key, value):
        doc = default_task(0).to_json()
        doc[key] = value
        with pytest.raises(InvalidInputError, match=f"PlantedTask: {key} must be"):
            PlantedTask.from_json(doc)

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"vocab": 4, "length": 2, "templates": [[0, 1], [2]], "correct": [1]},  # ragged
        {"vocab": 4, "length": 2, "templates": [[0, 1], [2, 2 ** 70]], "correct": [1]},
    ])
    def test_malformed_document(self, doc):
        with pytest.raises(InvalidInputError, match="PlantedTask"):
            PlantedTask.from_json(doc)


class TestDefaultTask:
    def test_rejects_negative_problem(self):
        with pytest.raises(InvalidInputError, match="problem id must be >= 0"):
            default_task(-1)

    def test_deterministic_per_problem(self):
        a, b = default_task(11), default_task(11)
        np.testing.assert_array_equal(a.templates, b.templates)
        assert a.correct == b.correct

    def test_template_zero_incorrect_and_two_correct(self):
        for p in range(10):
            task = default_task(p)
            assert 0 not in task.correct and len(task.correct) == 2

    def test_alternatives_share_the_prompt_key(self):
        task, prompt = default_problem(5)
        key = prompt[0]
        assert all(task.templates[m, 0] == key for m in range(1, 8))
        assert task.templates[0, 0] != key

    def test_prompted_greedy_is_deterministic_and_incorrect(self):
        for p in range(6):
            task, prompt = default_problem(p)
            config = GenerationConfig(
                temperature=0.0, steps=task.length - 1, length=task.length,
                batch=4, seed=p,
            )
            seqs = generate_batch(PlantedDenoiser(task), config, prompt=prompt)
            for seq in seqs[1:]:
                np.testing.assert_array_equal(seq, seqs[0])
            assert not check_answer(task, seqs[0])


def bigram_count_oracle(corpus, vocab):
    """Direct count table with add-one smoothing."""
    fwd = np.ones((vocab, vocab))
    for seq in corpus:
        for a, b in zip(seq[:-1], seq[1:]):
            fwd[a, b] += 1
    return fwd / fwd.sum(axis=1, keepdims=True)


class TestBigram:
    def test_dominant_transition(self):
        corpus = [[0, 1] * 8]
        model = bigram_train(corpus, 3)
        masked = np.array([[False, True]])
        realized = np.array([[0, mask_token(3)]])
        state = MaskState(masked, realized, 3)
        logits = model.predict(state, 0)
        assert np.argmax(logits[0, 1]) == 1

    def test_unseen_pair_smoothed_uniform(self):
        model = bigram_train([[0, 1]], 4)
        # transitions out of token 2 were never observed
        np.testing.assert_allclose(model.forward[2], np.full(4, 0.25))

    def test_matches_count_table_oracle(self):
        corpus = [[0, 1], [1, 0], [0, 1, 0]]
        vocab = 3
        model = bigram_train(corpus, vocab)
        np.testing.assert_allclose(model.forward, bigram_count_oracle(corpus, vocab))

    def test_boundary_uses_unigram(self):
        corpus = [[0, 1, 2]]
        model = bigram_train(corpus, 4)
        state = MaskState.fully_masked(1, 3, 4)
        logits = model.predict(state, 0)
        # all neighbors masked: every row is the unigram
        np.testing.assert_allclose(np.exp(logits[0]), np.tile(model.unigram, (3, 1)))

    def test_predict_matches_reference_loop(self):
        gen = np.random.default_rng(11)
        for _ in range(300):
            b, s, v = (int(n) for n in gen.integers([1, 1, 2], [7, 11, 10], endpoint=True))
            corpus = [gen.integers(0, v, size=int(gen.integers(1, 9))) for _ in range(4)]
            model = bigram_train(corpus, v)
            state = random_state(gen, b, s, v, masked_fraction=gen.choice([0.0, 0.5, 1.0]))
            np.testing.assert_array_equal(model.predict(state, 0),
                                          reference.bigram_predict(model, state))

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            bigram_train([], 4)

    def test_generation_runs(self):
        gen = np.random.default_rng(5)
        corpus = [gen.integers(0, 6, size=10) for _ in range(20)]
        model = bigram_train(corpus, 6)
        config = GenerationConfig(temperature=1.0, steps=4, length=8, batch=2, seed=1)
        seqs = generate_batch(model, config)
        assert all(seq.max() < 6 for seq in seqs)
