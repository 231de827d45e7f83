import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import random_state
from divdiff import linalg
from divdiff.dpp import build_l_ensemble, dpp_grad_logits, dpp_loss, dpp_step
from divdiff.errors import DegenerateInputError, InvalidInputError, NumericalError
from divdiff.features import FeatureSet, feature_set
from divdiff.gradcheck import fd_dpp_gradient, has_pool_tie, relative_error, run_dpp_suite
from divdiff.models import PlantedDenoiser, default_problem
from divdiff.engine import GenerationConfig, generate_batch
from divdiff.state import MaskState


def features_only(vectors, qualities=None):
    v = np.asarray(vectors, dtype=np.float64)
    q = np.ones(v.shape[0]) if qualities is None else np.asarray(qualities, dtype=np.float64)
    return FeatureSet(features=v, routing=np.zeros(v.shape, dtype=np.int64), qualities=q)


def shift_logdet_loss(eigenvalues, eps):
    """Oracle: the loss from known kernel eigenvalues via the shift identity."""
    first = sum(math.log(e + eps) for e in eigenvalues)
    second = sum(math.log(e + 1.0 + eps) for e in eigenvalues)
    return -(first - second)


class TestBuildLEnsemble:
    def test_orthogonal_unit_features(self):
        l_matrix = build_l_ensemble(features_only([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(l_matrix, np.eye(2), atol=1e-14)

    def test_identical_features_rank_one(self):
        l_matrix = build_l_ensemble(features_only([[2.0, 2.0], [1.0, 1.0]]))
        np.testing.assert_allclose(l_matrix, np.ones((2, 2)), atol=1e-14)

    def test_quality_outer_product(self):
        fs = features_only([[1.0, 0.0], [0.0, 1.0]], qualities=[0.5, 0.5])
        np.testing.assert_allclose(build_l_ensemble(fs), 0.25 * np.eye(2), atol=1e-14)

    def test_zero_norm_feature(self):
        with pytest.raises(DegenerateInputError):
            build_l_ensemble(features_only([[0.0, 0.0], [1.0, 0.0]]))

    def test_psd_on_random_features(self, rng):
        for _ in range(20):
            v = rng.random((5, 8)) + 1e-6
            q = rng.random(5)
            eigs = np.linalg.eigvalsh(build_l_ensemble(features_only(v, q)))
            assert eigs.min() >= -1e-9


class TestDppLoss:
    def test_identity_kernel(self):
        expected = shift_logdet_loss([1.0, 1.0], 1e-3)
        assert dpp_loss(np.eye(2), 1e-3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.385295110537, abs=1e-9)

    def test_all_ones_kernel(self):
        # eigenvalues of the all-ones 2x2 matrix are {2, 0}
        expected = shift_logdet_loss([2.0, 0.0], 1e-3)
        assert dpp_loss(np.ones((2, 2)), 1e-3) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(7.314053290172, abs=1e-9)

    def test_identity_minimizes_among_fixed_trace(self):
        # sweep the off-diagonal of [[1, c], [c, 1]]: the minimum sits at c = 0
        grid = np.linspace(-0.95, 0.95, 39)
        losses = [dpp_loss(np.array([[1.0, c], [c, 1.0]]), 1e-3) for c in grid]
        assert np.argmin(losses) == np.argmin(np.abs(grid))

    def test_similar_batch_costs_more_than_diverse(self):
        for b in (2, 4, 8, 16):
            assert dpp_loss(np.ones((b, b)), 1e-3) > dpp_loss(np.eye(b), 1e-3)

    def test_monotone_in_cosine_similarity(self):
        cosines = np.linspace(0.0, 0.99, 25)
        losses = [dpp_loss(np.array([[1.0, c], [c, 1.0]]), 1e-3) for c in cosines]
        assert np.all(np.diff(losses) > 0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            dpp_loss(np.ones((2, 3)), 1e-3)


def guided_instance(seed, batch=3, length=2, vocab=5):
    gen = np.random.default_rng(seed)
    while True:
        logits = gen.normal(0, 1.5, size=(batch, length, vocab))
        state = random_state(gen, batch, length, vocab)
        if not has_pool_tie(logits, state):
            return logits, state


class TestDppGradLogits:
    def test_single_sample_matches_fd(self):
        logits, state = guided_instance(1, batch=1)
        analytic = logits - dpp_grad_logits(logits, state, 1e-3, None, 1.0)
        numeric = fd_dpp_gradient(logits, state, 1e-3, h=1e-4)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
        assert np.abs(analytic - numeric).max() / scale <= 1e-5

    def test_duplicate_samples_match_fd(self):
        gen = np.random.default_rng(2)
        row = gen.normal(size=(1, 2, 5))
        logits = np.concatenate([row, row], axis=0)
        state = random_state(gen, 1, 2, 5)
        state = MaskState(
            np.concatenate([state.masked] * 2), np.concatenate([state.realized] * 2),
            state.vocab,
        )
        analytic = logits - dpp_grad_logits(logits, state, 1e-3, None, 1.0)
        numeric = fd_dpp_gradient(logits, state, 1e-3, h=1e-4)
        np.testing.assert_allclose(analytic[0], analytic[1], atol=1e-10)
        assert relative_error(analytic, numeric) <= 1e-5

    def test_random_masked_instance_matches_fd(self):
        logits, state = guided_instance(3, batch=3, length=2, vocab=5)
        analytic = logits - dpp_grad_logits(logits, state, 1e-3, None, 1.0)
        numeric = fd_dpp_gradient(logits, state, 1e-3, h=1e-4)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
        assert np.abs(analytic - numeric).max() / scale <= 1e-5


class TestDppParams:
    """dpp_step's knobs, checked by the GenerationConfig it reads them from."""

    @pytest.mark.parametrize("knob", ["alpha", "jitter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, knob, value):
        with pytest.raises(InvalidInputError, match=f"{knob} must be finite"):
            GenerationConfig(**{"alpha": 1.0, knob: value})
        with pytest.raises(InvalidInputError, match=f"{knob} must be finite"):
            replace(GenerationConfig(guidance="dpp"), **{knob: value})

    def test_knobs_are_frozen(self):
        config = GenerationConfig(guidance="dpp")
        for knob in ("alpha", "jitter", "anneal", "steps", "feature_top_k"):
            with pytest.raises(FrozenInstanceError):
                setattr(config, knob, getattr(config, knob))


class TestDppStep:
    def test_alpha_zero_identity(self):
        logits, state = guided_instance(4)
        out = dpp_step(logits, state, GenerationConfig(alpha=0.0), t=5)
        np.testing.assert_array_equal(out, logits)

    def test_fully_committed_single_sample_identity(self, rng):
        state = random_state(rng, 1, 3, 4, masked_fraction=0.0)
        logits = rng.normal(size=(1, 3, 4))
        out = dpp_step(logits, state, GenerationConfig(alpha=8.0, anneal="off"), t=5)
        np.testing.assert_array_equal(out, logits)

    def test_small_step_descends(self):
        for seed in range(4):
            logits, state = guided_instance(10 + seed, batch=4, length=3, vocab=6)
            fs0, _ = feature_set(logits, state)
            q0 = fs0.qualities.copy()

            def frozen_loss(x):
                fs, _ = feature_set(x, state)
                v = fs.features
                normed = v / np.linalg.norm(v, axis=1, keepdims=True)
                return dpp_loss((normed @ normed.T) * np.outer(q0, q0), 1e-3)

            out = dpp_step(logits, state, GenerationConfig(alpha=1e-3, anneal="off"), t=7)
            assert frozen_loss(out) <= frozen_loss(logits) + 1e-9

    def test_no_prefix_invariance_differential(self):
        # joint coupling: there exists a seed where the first outputs differ
        task, prompt = default_problem(0)
        base = dict(
            temperature=1.0, steps=task.length - 1, length=task.length,
            guidance="dpp", alpha=32.0,
        )
        model = PlantedDenoiser(task)
        broken = 0
        for seed in range(5):
            small = generate_batch(
                model, GenerationConfig(batch=8, seed=seed, **base), prompt=prompt
            )
            large = generate_batch(
                model, GenerationConfig(batch=16, seed=seed, **base), prompt=prompt
            )
            if not all(np.array_equal(small[i], large[i]) for i in range(8)):
                broken += 1
        assert broken > 0


def test_dpp_gradient_suite():
    result = run_dpp_suite(instances=120, seed=32)
    assert result.passed, f"worst relative error {result.worst:.3e}"


class TestDppStepGroups:
    def test_each_group_steps_as_its_lone_batch(self):
        logits, state = guided_instance(31, batch=12, length=3, vocab=6)
        config = GenerationConfig(alpha=3.0, anneal="off", feature_top_k=2)
        stacked = dpp_step(logits, state, config, t=4, groups=3)
        for i in range(0, 12, 4):
            part = MaskState(state.masked[i:i + 4], state.realized[i:i + 4], state.vocab)
            np.testing.assert_array_equal(stacked[i:i + 4],
                                          dpp_step(logits[i:i + 4], part, config, t=4))

    @pytest.mark.parametrize("groups", [0, -1, 2, 1.5, True])
    def test_groups_must_divide_the_batch(self, groups):
        logits, state = guided_instance(32, batch=3)
        for alpha in (0.0, 8.0):
            with pytest.raises(InvalidInputError, match="groups"):
                dpp_step(logits, state, GenerationConfig(alpha=alpha), t=5, groups=groups)
        with pytest.raises(InvalidInputError, match="groups"):
            dpp_grad_logits(logits, state, 1e-3, None, 1.0, groups=groups)


class TestDppStackRetry:
    """A failed factorization in a stack of 3 groups: the failing group retries
    alone with extra jitter; the others keep the bits of their lone steps."""

    config = GenerationConfig(alpha=3.0, anneal="off")

    def setup_method(self):
        self.logits, self.state = guided_instance(33, batch=12, length=3, vocab=6)
        self.parts = [(self.logits[i:i + 4], MaskState(self.state.masked[i:i + 4],
                                                       self.state.realized[i:i + 4], 6))
                      for i in (0, 4, 8)]
        # the symmetrized L + eps I of group 2, as spd_inverse hands it to LAPACK
        kernel = build_l_ensemble(feature_set(*self.parts[1])[0]) + self.config.jitter * np.eye(4)
        self.target = 0.5 * (kernel + kernel.T)

    def fail_potrf(self, monkeypatch, fails):
        """LAPACK reports a matrix as not positive definite when fails(its
        largest distance from group 2's L + eps I) holds."""
        real, seen = linalg.dpotrf, []

        def potrf(a, **kwargs):
            if fails(np.abs(a - self.target).max()):
                seen.append(a.copy())
                return a, 1
            return real(a, **kwargs)

        monkeypatch.setattr(linalg, "dpotrf", potrf)
        return seen

    def solo(self, g):
        return dpp_step(*self.parts[g], self.config, t=4)

    def test_failing_group_retries_alone(self, monkeypatch):
        clean = [self.solo(g) for g in range(3)]
        seen = self.fail_potrf(monkeypatch, lambda gap: gap == 0.0)
        stacked = dpp_step(self.logits, self.state, self.config, t=4, groups=3)
        assert len(seen) == 2  # once in the stack, once alone; the retry factors
        np.testing.assert_array_equal(stacked[0:4], clean[0])
        np.testing.assert_array_equal(stacked[8:12], clean[2])
        seen.clear()  # group 2's own step fails the same way: one stack of 2, then alone
        np.testing.assert_array_equal(stacked[4:8], self.solo(1))
        assert len(seen) == 2 and not np.array_equal(stacked[4:8], clean[1])

    def test_second_failure_raises(self, monkeypatch):
        seen = self.fail_potrf(monkeypatch, lambda gap: gap <= 20 * self.config.jitter)
        with pytest.raises(NumericalError, match="jitter retry"):
            dpp_step(self.logits, self.state, self.config, t=4, groups=3)
        assert len(seen) == 3  # in the stack, alone, and its jitter retry
