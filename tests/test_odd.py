from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import reference
from conftest import random_state
from divdiff import odd as odd_module
from divdiff.engine import GenerationConfig
from divdiff.errors import DegenerateInputError, InvalidInputError
from divdiff.features import FeatureSet, backprop_to_logits, feature_set
from divdiff.gradcheck import fd_odd_gradient, frozen_odd_targets, has_pool_tie, run_odd_suite
from divdiff.odd import anneal_alpha, odd_losses, odd_step, project_onto_basis
from reference import OrthoBasis, extend_basis

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def features_only(vectors, qualities=None):
    v = np.asarray(vectors, dtype=np.float64)
    q = np.ones(v.shape[0]) if qualities is None else np.asarray(qualities, dtype=np.float64)
    return FeatureSet(features=v, routing=np.zeros(v.shape, dtype=np.int64), qualities=q)


class TestProjection:
    def test_single_axis(self):
        basis = np.array([E1])
        np.testing.assert_allclose(project_onto_basis(basis, [3.0, 4.0]), [3.0, 0.0])

    def test_empty_basis(self):
        assert not project_onto_basis(np.empty((0, 2)), [1.0, 2.0]).any()

    def test_full_span_reproduces_input(self, rng):
        vectors = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        v = rng.normal(size=4)
        np.testing.assert_allclose(project_onto_basis(vectors.T, v), v, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            project_onto_basis(np.array([E1]), [1.0, 2.0, 3.0])


class TestExtendBasis:
    """The list-based Gram-Schmidt of tests/reference.py."""

    def test_orthogonal_vector_appends(self):
        basis = extend_basis(OrthoBasis([E1]), E2)
        assert len(basis) == 2
        np.testing.assert_allclose(basis.vectors[1], E2)

    def test_duplicate_direction_is_noop(self):
        basis = OrthoBasis([E1])
        assert extend_basis(basis, 2.5 * E1) is basis

    def test_oblique_vector_normalizes_residual(self):
        basis = extend_basis(OrthoBasis([E1]), np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(basis.vectors[1], E2, atol=1e-12)

    def test_orthonormality_survives_near_dependence(self, rng):
        basis = OrthoBasis([], tolerance=1e-8)
        base = rng.normal(size=24)
        for k in range(12):
            # vectors nearly inside the current span
            noise = rng.normal(size=24) * 1e-6
            basis = extend_basis(basis, base + k * noise)
        gram = np.array([[float(np.dot(a, b)) for b in basis.vectors] for a in basis.vectors])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-7)


class TestAnnealAlpha:
    def test_final_step_unguided(self):
        assert anneal_alpha(16.0, 1) == 0.0

    def test_printed_formula(self):
        assert anneal_alpha(16.0, 32) == pytest.approx((1 - 1 / 32) * 16.0)

    def test_zero_alpha(self):
        assert anneal_alpha(0.0, 7) == 0.0

    def test_off_mode(self):
        assert anneal_alpha(5.0, 1, mode="off") == 5.0

    def test_linear_mode(self):
        assert anneal_alpha(10.0, 1, mode="linear", total_steps=5) == 0.0
        assert anneal_alpha(10.0, 5, mode="linear", total_steps=5) == 10.0
        assert anneal_alpha(10.0, 3, mode="linear", total_steps=5) == pytest.approx(5.0)

    def test_invalid_remaining(self):
        with pytest.raises(InvalidInputError):
            anneal_alpha(1.0, 0)


class TestOddLosses:
    def test_single_sample_seeds_basis(self):
        fs = features_only([[3.0, 0.0]])
        upstream, dirs, basis = odd_losses(fs, 1e-8)
        assert dirs == [] and not upstream.any()
        np.testing.assert_allclose(basis, [E1])

    def test_orthogonal_second_sample(self):
        fs = features_only([[1.0, 0.0], [0.0, 2.0]])
        upstream, dirs, _ = odd_losses(fs, 1e-8)
        np.testing.assert_allclose(upstream, [[0.0, 0.0], -E2])
        np.testing.assert_allclose(dirs[0], E2)

    def test_duplicate_sample_guarded(self):
        fs = features_only([[1.0, 1.0], [1.0, 1.0]])
        upstream, dirs, basis = odd_losses(fs, 1e-8)
        assert dirs[0] is None and not upstream.any()
        assert len(basis) == 1

    # an exact repeat is skipped at any tolerance > 0; projected, it would
    # leave a rounding residual that 1e-300 turns into a unit direction
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-300])
    @pytest.mark.parametrize("rows, skipped", [
        ([[1.0, 1.0], [1.0, 1.0]], [True]),
        ([[0.3, 0.1, 0.7], [0.2, 0.9, 0.4], [0.3, 0.1, 0.7], [0.2, 0.9, 0.4]],
         [False, True, True]),  # repeats after the basis grew
    ])
    def test_exact_repeat_skipped_at_any_tolerance(self, rows, skipped, tolerance):
        upstream, dirs, basis = odd_losses(features_only(rows), tolerance)
        assert [d is None for d in dirs] == skipped
        assert not upstream[1:][skipped].any()
        assert len(basis) == len(rows) - sum(skipped)

    def test_quality_weighting(self):
        fs = features_only([[1.0, 0.0], [0.0, 1.0]], qualities=[1.0, 0.25])
        upstream, _, _ = odd_losses(fs, 1e-8)
        np.testing.assert_allclose(upstream[1], -0.25 * E2)

    def test_matches_extend_basis_reference(self):
        # the per-sample loop over the reference's list basis and
        # extend_basis, bit for bit; B > V and a repeated row hit the
        # tolerance branches
        gen = np.random.default_rng(12)
        v = gen.random((8, 4))
        v[3] = v[1]
        fs = features_only(v, qualities=gen.random(8))
        basis = OrthoBasis([v[0] / np.linalg.norm(v[0])], tolerance=1e-8)
        ref_dirs = []
        for i in range(1, 8):
            residual = v[i] - reference.project_onto_basis(basis, v[i])
            norm = np.linalg.norm(residual)
            ref_dirs.append(None if norm <= 1e-8 else residual / norm)
            basis = extend_basis(basis, v[i])
        upstream, dirs, got = odd_losses(fs, 1e-8)
        assert [d is None for d in dirs] == [d is None for d in ref_dirs]
        assert any(d is None for d in dirs) and dirs[-1] is None
        for i, (d, ref) in enumerate(zip(dirs, ref_dirs), start=1):
            if ref is None:
                assert not upstream[i].any()
            else:
                np.testing.assert_array_equal(d, ref)
                np.testing.assert_array_equal(upstream[i], -fs.qualities[i] * ref)
        np.testing.assert_array_equal(got, np.array(basis.vectors))

    def test_integer_features_match_float(self):
        # a (3, 4) first row normalizes to (0.6, 0.8); integer storage
        # must not truncate the basis to zero
        ints = np.array([[3, 4], [1, 0], [0, 2]])
        q = np.array([1.0, 0.5, 2.0])
        fs = FeatureSet(features=ints, routing=np.zeros(ints.shape, dtype=np.int64),
                        qualities=q)
        upstream, dirs, basis = odd_losses(fs, 1e-8)
        ref_upstream, ref_dirs, ref_basis = odd_losses(features_only(ints, q), 1e-8)
        np.testing.assert_array_equal(upstream, ref_upstream)
        np.testing.assert_array_equal(dirs[0], ref_dirs[0])
        np.testing.assert_array_equal(basis, ref_basis)
        # residual (0.64, -0.48) has norm 0.8: the row is -0.5 * (0.8, -0.6)
        np.testing.assert_allclose(upstream[1], [-0.4, 0.3])

    def test_degenerate_first_feature(self):
        fs = features_only([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            odd_losses(fs, 1e-8)


def guided_instance(seed, batch=3, length=4, vocab=6):
    gen = np.random.default_rng(seed)
    while True:
        logits = gen.normal(0, 1.5, size=(batch, length, vocab))
        state = random_state(gen, batch, length, vocab)
        if not has_pool_tie(logits, state):
            return logits, state


def spy_on_backprop(monkeypatch):
    """Record each odd_step call of backprop_to_logits in the returned list."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return backprop_to_logits(*args, **kwargs)

    monkeypatch.setattr(odd_module, "backprop_to_logits", spy)
    return calls


class TestOddParams:
    """odd_step's knobs, checked by the GenerationConfig it reads them from."""

    # unchecked, a nan alpha turned logits into NaN and an inf alpha into +-inf
    @pytest.mark.parametrize("knob", ["alpha", "tolerance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, knob, value):
        with pytest.raises(InvalidInputError, match=f"{knob} must be finite"):
            GenerationConfig(**{"alpha": 1.0, knob: value})
        with pytest.raises(InvalidInputError, match=f"{knob} must be finite"):
            replace(GenerationConfig(guidance="odd"), **{knob: value})

    def test_knobs_are_frozen(self):
        config = GenerationConfig(guidance="odd")
        for knob in ("alpha", "tolerance", "anneal", "steps", "feature_top_k"):
            with pytest.raises(FrozenInstanceError):
                setattr(config, knob, getattr(config, knob))


class TestOddStep:
    def test_alpha_zero_identity(self, rng):
        logits, state = guided_instance(1)
        out = odd_step(logits, state, GenerationConfig(alpha=0.0), t=5)
        np.testing.assert_array_equal(out, logits)

    def test_single_sample_identity(self, rng):
        logits, state = guided_instance(2, batch=1)
        out = odd_step(logits, state, GenerationConfig(alpha=8.0, anneal="off"), t=5)
        np.testing.assert_array_equal(out, logits)

    def test_first_sample_bit_identical(self):
        logits, state = guided_instance(3)
        out = odd_step(logits, state, GenerationConfig(alpha=4.0, anneal="off"), t=5)
        np.testing.assert_array_equal(out[0], logits[0])
        assert np.abs(out[1:] - logits[1:]).max() > 0

    def test_final_step_anneal_is_identity(self):
        logits, state = guided_instance(4)
        out = odd_step(logits, state, GenerationConfig(alpha=64.0), t=1)
        np.testing.assert_array_equal(out, logits)

    def test_matches_gradient_descent_oracle(self):
        # update equals X - alpha * (frozen-constant finite-difference gradient)
        logits, state = guided_instance(5, batch=2, length=1, vocab=3)
        alpha = 0.5
        out = odd_step(logits, state, GenerationConfig(alpha=alpha, anneal="off"), t=9)
        numeric = fd_odd_gradient(logits, state, 1e-8, h=1e-4)
        expected = logits - alpha * numeric
        scale = max(np.abs(out - logits).max(), 1e-9)
        assert np.abs(out - expected).max() / scale <= 1e-5

    def test_prefix_determinism_bitwise(self):
        logits, state = guided_instance(6, batch=6, length=4, vocab=7)
        params = GenerationConfig(alpha=3.0, anneal="off")
        full = odd_step(logits, state, params, t=4)
        for m in (2, 3, 5):
            sliced_state = type(state)(
                state.masked[:m].copy(), state.realized[:m].copy(), state.vocab
            )
            part = odd_step(logits[:m], sliced_state, params, t=4)
            np.testing.assert_array_equal(part, full[:m])

    def test_no_gradient_leakage_from_later_samples(self):
        logits, state = guided_instance(7, batch=4, length=3, vocab=5)
        params = GenerationConfig(alpha=2.0, anneal="off")
        out = odd_step(logits, state, params, t=3)
        bumped = logits.copy()
        bumped[3] += 0.37
        out2 = odd_step(bumped, state, params, t=3)
        np.testing.assert_array_equal(out2[:3], out[:3])

    def test_zero_residual_sample_untouched(self, monkeypatch):
        # no sample moves, so the logits come back bit for bit, a -0.0 entry
        # included, and the backprop never runs
        gen = np.random.default_rng(8)
        logits = gen.normal(size=(1, 3, 4))
        logits[0, 0, 0] = -0.0
        logits = np.concatenate([logits, logits], axis=0)  # sample 2 duplicates sample 1
        state = random_state(gen, 1, 3, 4)
        state = type(state)(
            np.concatenate([state.masked] * 2), np.concatenate([state.realized] * 2),
            state.vocab,
        )
        calls = spy_on_backprop(monkeypatch)
        out = odd_step(logits, state, GenerationConfig(alpha=5.0, anneal="off"), t=2)
        np.testing.assert_array_equal(out.view(np.uint64), logits.view(np.uint64))
        assert calls == []

    def test_basis_orthonormal_after_step(self):
        gen = np.random.default_rng(9)
        for _ in range(5):
            logits = gen.normal(0, 1.5, size=(16, 4, 32))
            state = random_state(gen, 16, 4, 32)
            fs, _ = feature_set(logits, state)
            _, _, basis = odd_losses(fs, 1e-8)
            gram = np.array([[float(np.dot(a, b)) for b in basis] for a in basis])
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-7)

    def test_first_order_descent(self):
        # the frozen-constants objective decreases for small alpha
        for seed in range(5):
            logits, state = guided_instance(30 + seed, batch=4, length=4, vocab=6)
            fs0, _ = feature_set(logits, state)
            targets = frozen_odd_targets(fs0, 1e-8)
            q0 = fs0.qualities.copy()

            def frozen_loss(x):
                fs, _ = feature_set(x, state)
                total = 0.0
                for i in range(1, x.shape[0]):
                    total += -q0[i] * np.linalg.norm(fs.features[i] - targets[i - 1])
                return total

            alpha = 1e-3
            out = odd_step(logits, state, GenerationConfig(alpha=alpha, anneal="off"), t=10)
            assert frozen_loss(out) <= frozen_loss(logits) + 1e-9


def test_odd_gradient_suite():
    result = run_odd_suite(instances=120, seed=31)
    assert result.passed, f"worst relative error {result.worst:.3e}"


class TestOddStepGroups:
    def test_each_group_steps_as_its_lone_batch(self):
        logits, state = guided_instance(21, batch=12, length=4, vocab=6)
        config = GenerationConfig(alpha=3.0, anneal="off", feature_top_k=2)
        stacked = odd_step(logits, state, config, t=4, groups=3)
        for i in range(0, 12, 4):
            part = type(state)(state.masked[i:i + 4], state.realized[i:i + 4], state.vocab)
            np.testing.assert_array_equal(stacked[i:i + 4],
                                          odd_step(logits[i:i + 4], part, config, t=4))

    def test_backprop_runs_when_one_group_moves(self, monkeypatch):
        live, live_state = guided_instance(24, batch=2)
        dead = np.concatenate([live[:1]] * 2)  # a duplicated sample: nothing moves
        dead[:, 0, 0] = -0.0
        logits = np.concatenate([dead, live, dead])
        rows = [0, 0, 0, 1, 0, 0]
        state = type(live_state)(live_state.masked[rows], live_state.realized[rows],
                                 live_state.vocab)
        calls = spy_on_backprop(monkeypatch)
        out = odd_step(logits, state, GenerationConfig(alpha=8.0, anneal="off"), t=5, groups=3)
        assert len(calls) == 1
        for i in (0, 4):
            np.testing.assert_array_equal(out[i:i + 2].view(np.uint64), dead.view(np.uint64))
        live_out = odd_step(live, live_state, GenerationConfig(alpha=8.0, anneal="off"), t=5)
        np.testing.assert_array_equal(out[2:4], live_out)
        assert np.abs(live_out - live).max() > 0

    def test_one_sample_groups_are_identity(self):
        logits, state = guided_instance(22, batch=3)
        out = odd_step(logits, state, GenerationConfig(alpha=8.0, anneal="off"), t=5, groups=3)
        np.testing.assert_array_equal(out, logits)

    @pytest.mark.parametrize("groups", [0, -1, 2, 1.5, True])
    def test_groups_must_divide_the_batch(self, groups):
        logits, state = guided_instance(23, batch=3)
        with pytest.raises(InvalidInputError, match="groups"):
            odd_step(logits, state, GenerationConfig(alpha=8.0), t=5, groups=groups)

