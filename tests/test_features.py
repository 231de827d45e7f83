import tracemalloc

import numpy as np
import pytest

import reference
from conftest import random_state
from divdiff.errors import ContractError, InvalidInputError
from divdiff.features import (
    backprop_to_logits,
    extract_features,
    feature_set,
    quality_scores,
    unified_distribution,
)
from divdiff.gradcheck import fd_feature_gradient, has_pool_tie, run_feature_suite
from divdiff.state import MaskState, mask_token


def state_from_rows(masked_row, realized_row, vocab, prompt_len=0):
    masked = np.asarray([masked_row], dtype=bool)
    realized = np.asarray([realized_row], dtype=np.int64)
    realized[masked] = mask_token(vocab)
    return MaskState(masked, realized, vocab, prompt_len)


class TestUnifiedDistribution:
    def test_committed_position_is_one_hot(self):
        state = state_from_rows([False], [2], vocab=3)
        ud = unified_distribution(np.zeros((1, 1, 3)), state)
        np.testing.assert_array_equal(ud.probs[0, 0], [0.0, 0.0, 1.0])
        assert ud.one_hot[0, 0]

    def test_masked_position_is_softmax(self):
        state = state_from_rows([True], [0], vocab=3)
        ud = unified_distribution(np.zeros((1, 1, 3)), state)
        np.testing.assert_allclose(ud.probs[0, 0], np.full(3, 1 / 3))
        assert not ud.one_hot[0, 0]

    def test_fully_masked_sample_has_no_one_hot_rows(self, rng):
        state = MaskState.fully_masked(2, 4, 5)
        ud = unified_distribution(rng.normal(size=(2, 4, 5)), state)
        assert not ud.one_hot.any()
        np.testing.assert_allclose(ud.probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_every_row_sums_to_one(self, rng):
        state = random_state(rng, 3, 6, 8)
        ud = unified_distribution(rng.normal(size=(3, 6, 8)), state)
        np.testing.assert_allclose(ud.probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_prompt_rows_flagged_out_of_pooling(self, rng):
        masked = np.array([[False, True, True]])
        realized = np.array([[1, mask_token(4), mask_token(4)]])
        state = MaskState(masked, realized, 4, prompt_len=1)
        fs = extract_features(unified_distribution(rng.normal(size=(1, 3, 4)), state))
        # the prompt row's one-hot holds token 1's only 1.0; softmax rows stay below
        assert fs.features[0, 1] < 1.0
        assert (fs.routing[0] >= 1).all()


class TestExtractFeatures:
    def test_elementwise_max(self):
        probs = np.array([[[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]])
        ud = unified_distribution(np.log(probs), MaskState.fully_masked(1, 2, 3))
        fs = extract_features(ud)
        np.testing.assert_allclose(fs.features[0], [0.7, 0.8, 0.1], atol=1e-12)
        np.testing.assert_array_equal(fs.routing[0], [0, 1, 0])

    def test_single_row_is_identity(self, rng):
        state = MaskState.fully_masked(1, 1, 6)
        fs, ud = feature_set(rng.normal(size=(1, 1, 6)), state)
        np.testing.assert_allclose(fs.features[0], ud.probs[0, 0])

    def test_committed_sample_has_unit_peak(self, rng):
        state = random_state(rng, 4, 5, 7, masked_fraction=0.4)
        fs, _ = feature_set(rng.normal(size=(4, 5, 7)), state)
        for i in range(4):
            if (~state.masked[i]).any():
                assert fs.features[i].max() == 1.0
            assert np.all(fs.features[i] >= 0) and np.all(fs.features[i] <= 1)

    def test_ties_route_to_lowest_position(self):
        probs = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        ud = unified_distribution(np.log(probs), MaskState.fully_masked(1, 2, 2))
        fs = extract_features(ud)
        np.testing.assert_array_equal(fs.routing[0], [0, 0])

    def test_top_k_restriction(self):
        probs = np.array([[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]])
        ud = unified_distribution(np.log(probs), MaskState.fully_masked(1, 2, 3))
        fs = extract_features(ud, top_k=1)
        # top-1 per row: tokens 0 and 1; token 2 excluded
        np.testing.assert_allclose(fs.features[0], [0.6, 0.5, 0.0], atol=1e-12)
        np.testing.assert_array_equal(fs.routing[0], [0, 1, -1])


class TestQualityScores:
    def test_uniform_committed_position(self):
        state = state_from_rows([False, True], [1, 0], vocab=4)
        q = quality_scores(np.zeros((1, 2, 4)), state)
        assert q[0] == pytest.approx(0.25)

    def test_no_committed_positions_defaults_to_one(self, rng):
        q = quality_scores(rng.normal(size=(2, 3, 5)), MaskState.fully_masked(2, 3, 5))
        np.testing.assert_array_equal(q, [1.0, 1.0])

    def test_mean_of_max_probs(self):
        probs = np.array([[[0.6, 0.4], [0.8, 0.2]]])
        state = state_from_rows([False, False], [0, 0], vocab=2)
        q = quality_scores(np.log(probs), state)
        assert q[0] == pytest.approx(0.7)

    def test_invariant_to_masked_logits(self, rng):
        state = random_state(rng, 2, 6, 5, masked_fraction=0.5)
        logits = rng.normal(size=(2, 6, 5))
        q1 = quality_scores(logits, state)
        noisy = logits.copy()
        noisy[state.masked] += rng.normal(size=noisy[state.masked].shape) * 10
        np.testing.assert_array_equal(q1, quality_scores(noisy, state))

    def test_prompt_positions_excluded(self, rng):
        masked = np.array([[False, False, True]])
        realized = np.array([[0, 1, mask_token(3)]])
        state = MaskState(masked, realized, 3, prompt_len=1)
        logits = rng.normal(size=(1, 3, 3))
        expected = np.exp(logits[0, 1] - logits[0, 1].max())
        expected = (expected / expected.sum()).max()
        assert quality_scores(logits, state)[0] == pytest.approx(expected)


class TestBackpropToLogits:
    def test_zero_upstream(self, rng):
        state = random_state(rng, 2, 4, 5)
        logits = rng.normal(size=(2, 4, 5))
        fs, ud = feature_set(logits, state)
        stepped = backprop_to_logits(np.zeros((2, 5)), fs, ud, logits, 1.0)
        np.testing.assert_array_equal(stepped, logits)
        assert stepped is not logits

    def test_fully_committed_sample_is_constant(self, rng):
        state = random_state(rng, 1, 4, 5, masked_fraction=0.0)
        logits = rng.normal(size=(1, 4, 5))
        fs, ud = feature_set(logits, state)
        stepped = backprop_to_logits(rng.normal(size=(1, 5)), fs, ud, logits, 1.0)
        np.testing.assert_array_equal(stepped, logits)

    def test_gradient_sparsity(self, rng):
        state = random_state(rng, 3, 5, 6)
        logits = rng.normal(size=(3, 5, 6))
        fs, ud = feature_set(logits, state)
        stepped = backprop_to_logits(rng.normal(size=(3, 6)), fs, ud, logits, 1.0)
        for i in range(3):
            touched = {int(r) for r in fs.routing[i] if r >= 0 and not ud.one_hot[i, r]}
            for s in range(5):
                if s not in touched:
                    np.testing.assert_array_equal(stepped[i, s], logits[i, s])

    def test_matches_finite_differences_small_instance(self):
        gen = np.random.default_rng(3)
        while True:
            logits = gen.normal(0, 1.5, size=(2, 3, 4))
            state = random_state(gen, 2, 3, 4)
            if not has_pool_tie(logits, state):
                break
        upstream = gen.normal(size=(2, 4))
        fs, ud = feature_set(logits, state)
        analytic = logits - backprop_to_logits(upstream, fs, ud, logits, 1.0)
        numeric = fd_feature_gradient(logits, state, upstream, h=1e-4)
        np.testing.assert_allclose(analytic, numeric, atol=2e-7)

    def test_shape_mismatch(self, rng):
        state = random_state(rng, 2, 3, 4)
        logits = rng.normal(size=(2, 3, 4))
        fs, ud = feature_set(logits, state)
        with pytest.raises(InvalidInputError):
            backprop_to_logits(np.zeros((2, 5)), fs, ud, logits, 1.0)

    def test_step_scales_the_upstream(self, rng):
        # a power-of-two step rounds exactly, so scaling the step and
        # scaling the upstream gradient give the same bits
        state = random_state(rng, 3, 5, 6)
        logits = rng.normal(size=(3, 5, 6))
        fs, ud = feature_set(logits, state)
        upstream = rng.normal(size=(3, 6))
        stepped = backprop_to_logits(upstream, fs, ud, logits, 0.5)
        np.testing.assert_array_equal(
            stepped, backprop_to_logits(0.5 * upstream, fs, ud, logits, 1.0)
        )
        assert np.abs(stepped - logits).max() > 0

    def test_routing_outside_pooling_is_contract_error(self, rng):
        masked = np.array([[False, True]])
        realized = np.array([[0, mask_token(3)]])
        state = MaskState(masked, realized, 3, prompt_len=1)
        fs, ud = feature_set(rng.normal(size=(1, 2, 3)), state)
        fs.routing[0, 0] = 0  # illegally route into the prompt row
        with pytest.raises(ContractError):
            backprop_to_logits(np.ones((1, 3)), fs, ud, np.zeros((1, 2, 3)), 1.0)

    @pytest.mark.parametrize("shape", [(3, 4, 5), (1, 4, 5), (4, 5)])
    def test_logits_shape_mismatch(self, rng, shape):
        # a (1, S, V) or (S, V) array would broadcast against the step
        state = random_state(rng, 2, 4, 5)
        fs, ud = feature_set(rng.normal(size=(2, 4, 5)), state)
        with pytest.raises(InvalidInputError, match="logits"):
            backprop_to_logits(np.ones((2, 5)), fs, ud, np.zeros(shape), 1.0)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
    def test_non_finite_step(self, rng, step):
        state = random_state(rng, 2, 4, 5)
        logits = rng.normal(size=(2, 4, 5))
        fs, ud = feature_set(logits, state)
        with pytest.raises(InvalidInputError, match="step"):
            backprop_to_logits(np.ones((2, 5)), fs, ud, logits, step)


def wide_case(b, s, v, seed, prompt_len=2, top_k=3):
    """(upstream, fs, ud, logits, state) past the property tests' shapes:
    a prompt, a top-k restriction, sample 1 with zero upstream, and
    nonzero upstream routed to committed rows."""
    gen = np.random.default_rng(seed)
    masked = gen.random((b, s)) < 0.6
    masked[:, :prompt_len] = False
    realized = gen.integers(0, v, size=(b, s)).astype(np.int64)
    realized[masked] = mask_token(v)
    state = MaskState(masked, realized, v, prompt_len)
    logits = gen.normal(0.0, 2.0, size=(b, s, v))
    fs, ud = feature_set(logits, state, top_k=top_k)
    upstream = gen.normal(size=(b, v))
    upstream[1] = 0.0
    routed = fs.routing >= 0
    at_committed = np.take_along_axis(ud.one_hot, np.maximum(fs.routing, 0), axis=1)
    assert (~routed).any() and (routed & at_committed & (upstream != 0)).any()
    return upstream, fs, ud, logits, state


@pytest.mark.parametrize("shape", [(16, 12, 48), (3, 64, 512)])
def test_backprop_matches_reference_at_wide_shapes(shape):
    # at B16.S12.V48 the (B, S, V) passes exceed numpy's 8192-element buffer
    upstream, fs, ud, logits, state = wide_case(*shape, seed=sum(shape))
    stepped = backprop_to_logits(upstream, fs, ud, logits, 0.37)
    expected = reference.descent_step(logits, ud.probs, state, fs.routing, upstream, 0.37)
    np.testing.assert_array_equal(stepped, expected)
    assert np.abs(stepped - logits).max() > 0


def test_backprop_leaves_its_inputs_untouched():
    upstream, fs, ud, logits, _ = wide_case(16, 12, 48, seed=5)
    inputs = (upstream, logits, ud.probs, fs.features, fs.routing)
    saved = [a.copy() for a in inputs]
    backprop_to_logits(upstream, fs, ud, logits, 0.37)
    for before, after in zip(saved, inputs):
        np.testing.assert_array_equal(after, before)


def test_backprop_peak_memory_stays_near_one_tensor():
    # every row masked and a dense upstream: all rows take the softmax VJP
    b, s, v = 16, 12, 48
    gen = np.random.default_rng(8)
    logits = gen.normal(size=(b, s, v))
    fs, ud = feature_set(logits, MaskState.fully_masked(b, s, v))
    upstream = gen.normal(size=(b, v))
    backprop_to_logits(upstream, fs, ud, logits, 0.5)
    tracemalloc.start()
    try:
        backprop_to_logits(upstream, fs, ud, logits, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * b * s * v * 8


def test_feature_suite_property():
    # >= 200 random instances (B<=4, S<=6, V<=10), rel err <= 1e-5
    result = run_feature_suite(instances=200, seed=20)
    assert result.passed, f"worst relative error {result.worst:.3e}"
