import numpy as np
import pytest

import reference
from divdiff import gradcheck
from divdiff.dpp import dpp_step
from divdiff.engine import GenerationConfig
from divdiff.features import backprop_to_logits, feature_set, unified_distribution
from divdiff.gradcheck import (
    fd_dpp_gradient,
    fd_feature_gradient,
    fd_odd_gradient,
    has_pool_tie,
    random_instance,
)
from divdiff.odd import odd_step
from divdiff.state import MaskState


@pytest.mark.parametrize("oracle", ["feature", "odd", "dpp"])
def test_fd_gradients_leave_logits_untouched(oracle):
    logits, state = random_instance(np.random.default_rng(7), min_batch=3)
    before = logits.copy()
    if oracle == "feature":
        upstream = np.random.default_rng(8).normal(size=(state.batch, state.vocab))
        grad = fd_feature_gradient(logits, state, upstream)
    elif oracle == "odd":
        grad = fd_odd_gradient(logits, state, 1e-8)
        # sample 1 seeds the basis and has no loss of its own
        assert not grad[0].any()
    else:
        grad = fd_dpp_gradient(logits, state, 1e-3)
    np.testing.assert_array_equal(logits, before)
    assert grad.shape == logits.shape


def per_sample_pool_tie(logits, state, gap=1e-6):
    """has_pool_tie one sample at a time over its pooled rows."""
    ud = unified_distribution(logits, state)
    for i in range(state.batch):
        rows = ud.probs[i, state.prompt_len:]
        if rows.shape[0] >= 2:
            top2 = np.sort(rows, axis=0)[-2:]
            if np.any(top2[1] - top2[0] <= gap):
                return True
    return False


@pytest.mark.parametrize("prompt_len", [0, 1, 3])
def test_pool_tie_matches_per_sample_scan(prompt_len):
    gen = np.random.default_rng(prompt_len)
    seen = set()
    for _ in range(200):
        logits, state = random_instance(gen)
        plen = min(prompt_len, state.length - 1)
        masked, realized = state.masked.copy(), state.realized.copy()
        masked[:, :plen] = False
        realized[:, :plen] = 0
        state = MaskState(masked, realized, state.vocab, prompt_len=plen)
        # a coarse logit grid makes ties common
        logits = np.round(logits)
        tie = has_pool_tie(logits, state)
        assert tie == per_sample_pool_tie(logits, state)
        seen.add(tie)
    assert seen == {True, False}


def test_random_instance_draws_unmasked_prompts():
    gen = np.random.default_rng(11)
    lengths = set()
    for _ in range(200):
        _, state = random_instance(gen)
        assert 0 <= state.prompt_len <= state.length - 2
        assert not state.masked[:, :state.prompt_len].any()
        lengths.add(state.prompt_len)
    assert lengths == set(range(5))  # max_length 6


def prompted_instance(seed):
    gen = np.random.default_rng(seed)
    for _ in range(100):
        logits, state = random_instance(gen, min_batch=2)
        if state.prompt_len > 0 and state.masked.any() and not has_pool_tie(logits, state):
            return logits, state, gen
    pytest.fail("random_instance drew no prompted instance in 100 tries")


@pytest.mark.parametrize("oracle", ["feature", "odd", "dpp"])
def test_prompt_rows_get_zero_gradient(oracle):
    logits, state, gen = prompted_instance(5)
    if oracle == "feature":
        upstream = gen.normal(size=(state.batch, state.vocab))
        fs, ud = feature_set(logits, state)
        stepped = backprop_to_logits(upstream, fs, ud, logits, 1.0)
        numeric = fd_feature_gradient(logits, state, upstream)
    elif oracle == "odd":
        config = GenerationConfig(alpha=1.0, tolerance=1e-8, anneal="off")
        stepped = odd_step(logits, state, config, t=1)
        numeric = fd_odd_gradient(logits, state, 1e-8)
    else:
        stepped = dpp_step(logits, state, GenerationConfig(alpha=1.0, anneal="off"), t=1)
        numeric = fd_dpp_gradient(logits, state, 1e-3)
    analytic = logits - stepped
    plen = state.prompt_len
    assert not analytic[:, :plen].any()
    assert not numeric[:, :plen].any()
    # the pooled rows still carry a gradient, so the check is not vacuous
    assert np.abs(numeric[:, plen:]).max() > 1e-6
    np.testing.assert_allclose(analytic, numeric, atol=1e-6)



def fd_pair(oracle, logits, state, gen):
    """(fd_* result, the reference's loop of lone passes) for one instance."""
    h = 1e-4
    if oracle == "feature":
        upstream = gen.normal(size=(state.batch, state.vocab))
        return (fd_feature_gradient(logits, state, upstream, h),
                reference.fd_feature_gradient(logits, state, upstream, h))
    if oracle == "odd":
        return (fd_odd_gradient(logits, state, 1e-8, h),
                reference.fd_odd_gradient(logits, state, 1e-8, h))
    return fd_dpp_gradient(logits, state, 1e-3, h), reference.fd_dpp_gradient(logits, state, 1e-3, h)


def tie_free_instances(gen, count, **kwargs):
    while count:
        logits, state = random_instance(gen, **kwargs)
        if not has_pool_tie(logits, state):
            count -= 1
            yield logits, state


@pytest.mark.parametrize("oracle", ["feature", "odd", "dpp"])
def test_stacked_differences_equal_the_per_entry_loop(oracle):
    gen = np.random.default_rng(40)
    for logits, state in tie_free_instances(gen, 200, min_batch=2 if oracle == "odd" else 1):
        numeric, loop = fd_pair(oracle, logits, state, gen)
        np.testing.assert_array_equal(numeric, loop)


@pytest.mark.parametrize("block", [1, 700])
def test_blocks_of_any_size_keep_the_loop_bits(monkeypatch, block):
    """Blocks of one copy each, and blocks that split the copies unevenly."""
    gen = np.random.default_rng(41)
    (logits, state), = tie_free_instances(gen, 1, min_batch=3, max_length=5, max_vocab=8)
    monkeypatch.setattr(gradcheck, "_BLOCK_ENTRIES", block)
    scored, features = [], gradcheck._features
    monkeypatch.setattr(gradcheck, "_features",
                        lambda x, s: scored.append(x.size) or features(x, s))
    for oracle in ("feature", "odd", "dpp"):
        numeric, loop = fd_pair(oracle, logits, state, gen)
        np.testing.assert_array_equal(numeric, loop)
    per_block = max(1, block // logits.size)
    assert max(scored) == per_block * logits.size  # the bound, or one copy above it
    assert len(scored) == 3 * -(-2 * logits.size // per_block)
