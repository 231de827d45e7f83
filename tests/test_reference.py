"""Property tests: the batched library against the per-row reference step.

Each example draws a batch shape, a prompt length, a mask pattern, the
sampling temperature, the guidance step size and a top-k restriction;
the library must reproduce tests/reference.py bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from divdiff.dpp import dpp_step
from divdiff.engine import GenerationConfig, denoise_step, make_guidance_hook, run_generation
from divdiff.features import feature_set
from divdiff.odd import odd_losses, odd_step
from divdiff.state import MaskState, build_schedule, mask_token
from divdiff.trace import trace_read, trace_write

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class FixedModel:
    """Returns the same logits at every step."""

    def __init__(self, logits):
        self.logits = logits
        self.vocab = logits.shape[2]

    def predict(self, state, t):
        return self.logits


class OwnStateModel:
    """Logits of a sample that depend only on that sample's own tokens."""

    def __init__(self, length, vocab, seed):
        gen = np.random.default_rng(seed)
        self.vocab = vocab
        self.base = gen.normal(0.0, 2.0, size=(length, vocab))
        self.mix = gen.normal(0.0, 1.0, size=(vocab + 1, vocab))

    def predict(self, state, t):
        return self.base[None] + self.mix[state.realized].mean(axis=1)[:, None, :]


# (source, near) for samples 1..5. An exact copy repeats its source's
# feature row bit for bit, which odd_losses skips. A near copy's features
# differ in the low bits: a distinct row that the tolerance keeps out of
# the basis. Sample 3 repeats such a row (sample 1) after sample 2 grew the
# basis; sample 4 repeats sample 0 after it.
SCRIPTED_COPIES = [(0, True), (None, False), (1, False), (0, False), (2, True)]


@st.composite
def step_cases(draw):
    """(logits, state, schedule, t, temperature, alpha, top_k)."""
    b = draw(st.integers(1, 6))
    s = draw(st.integers(2, 8))
    v = draw(st.integers(2, 12))
    plen = draw(st.integers(0, s - 1))
    steps = draw(st.integers(1, s - plen))
    schedule = build_schedule(s - plen, steps)
    t = draw(st.integers(0, steps - 1))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.3, 1.5, 6.0]))
    logits = gen.normal(0.0, scale, size=(b, s, v))
    masked = gen.random((b, s)) < draw(st.sampled_from([0.25, 0.5, 1.0]))
    masked[:, :plen] = False
    for i in range(b):  # every sample keeps at least the step's quota masked
        free = np.flatnonzero(~masked[i, plen:]) + plen
        short = schedule.unmask_counts[t] - masked[i].sum()
        masked[i, free[:max(short, 0)]] = True
    realized = gen.integers(0, v, size=(b, s))
    realized[masked] = mask_token(v)
    # copies of earlier samples, as (source, near) per sample: "some" draws
    # them at random, "script" takes SCRIPTED_COPIES, "all" makes the batch
    # one sample B times
    repeats = draw(st.sampled_from(["none", "some", "script", "all"]))
    for i in range(1, b if repeats != "none" else 1):
        if repeats == "some":
            j, near = draw(st.one_of(st.none(), st.integers(0, i - 1))), draw(st.booleans())
        else:
            j, near = (0, False) if repeats == "all" else SCRIPTED_COPIES[i - 1]
        if j is not None:
            logits[i] = logits[j] * (1.0 + 1e-12) if near else logits[j]
            masked[i], realized[i] = masked[j], realized[j]
    state = MaskState(masked, realized, v, plen)
    temperature = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    alpha = draw(st.sampled_from([0.0, 0.5, 4.0, 32.0]))
    top_k = draw(st.one_of(st.none(), st.integers(1, v + 1)))
    return logits, state, schedule, t, temperature, alpha, top_k


@PROPERTY
@given(step_cases())
def test_odd_step_matches_reference(case):
    logits, state, schedule, t, _, alpha, top_k = case
    config = GenerationConfig(alpha=alpha, steps=schedule.steps, feature_top_k=top_k)
    got = odd_step(logits, state, config, schedule.steps - t)
    want = reference.guided_step(logits, state, "odd", alpha, schedule.steps - t,
                                 schedule.steps, top_k=top_k)
    np.testing.assert_array_equal(got, want)


@PROPERTY
@given(step_cases())
def test_odd_losses_basis_matches_reference(case):
    logits, state, _, _, _, _, top_k = case
    fs, _ = feature_set(logits, state, top_k=top_k)
    upstream, directions, basis = odd_losses(fs, 1e-8)
    want_upstream, want_basis = reference.odd_upstream(fs.features, fs.qualities, 1e-8)
    np.testing.assert_array_equal(upstream, want_upstream)
    np.testing.assert_array_equal(basis, np.array(want_basis.vectors))
    assert len(directions) == state.batch - 1
    assert [d is None for d in directions] == [not row.any() for row in upstream[1:]]


@PROPERTY
@given(step_cases(), st.integers(1, 3))
def test_dpp_step_matches_reference(case, groups):
    # group g is the drawn batch rolled by g samples, logits scaled by 1 + g/2
    logits, state, schedule, t, _, alpha, top_k = case
    parts = [(np.roll(logits, g, axis=0) * (1.0 + 0.5 * g),
              MaskState(np.roll(state.masked, g, axis=0), np.roll(state.realized, g, axis=0),
                        state.vocab, state.prompt_len)) for g in range(groups)]
    stacked = MaskState(np.concatenate([p.masked for _, p in parts]),
                        np.concatenate([p.realized for _, p in parts]),
                        state.vocab, state.prompt_len)
    config = GenerationConfig(alpha=alpha, steps=schedule.steps, feature_top_k=top_k)
    got = dpp_step(np.concatenate([x for x, _ in parts]), stacked, config,
                   schedule.steps - t, groups=groups)
    want = [reference.guided_step(x, part, "dpp", alpha, schedule.steps - t, schedule.steps,
                                  top_k=top_k) for x, part in parts]
    np.testing.assert_array_equal(got, np.concatenate(want))


@PROPERTY
@given(step_cases(), st.sampled_from(["none", "odd", "dpp"]), st.integers(0, 2**63))
def test_denoise_step_matches_reference(case, guidance, seed):
    logits, state, schedule, t, temperature, alpha, top_k = case
    config = GenerationConfig(
        temperature=temperature, steps=schedule.steps, length=state.length,
        batch=state.batch, seed=seed, guidance=guidance, alpha=alpha,
        feature_top_k=top_k,
    )
    model = FixedModel(logits)
    got = denoise_step(model, state, t, config, schedule, make_guidance_hook(config))
    want = reference.denoise_step(model, state, t, config, schedule)
    np.testing.assert_array_equal(got.realized, want.realized)
    np.testing.assert_array_equal(got.masked, want.masked)


@settings(max_examples=25, deadline=None)
@given(
    b1=st.integers(1, 5), extra=st.integers(1, 4), length=st.integers(2, 7),
    vocab=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
    temperature=st.sampled_from([0.0, 1.0]), alpha=st.sampled_from([2.0, 16.0]),
)
def test_odd_prefix_invariance(b1, extra, length, vocab, seed, temperature, alpha):
    model = OwnStateModel(length, vocab, seed)
    config = GenerationConfig(temperature=temperature, steps=length, length=length,
                              batch=b1, seed=seed, guidance="odd", alpha=alpha)
    small = run_generation(model, config).sequences
    large = run_generation(model, replace(config, batch=b1 + extra)).sequences
    for a, b in zip(small, large):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float32, st.tuples(*[st.integers(1, 4)] * 4),
              elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
def test_trace_round_trip(tmp_path, blocks):
    path = tmp_path / "t.oddt"
    trace_write(path, blocks)
    np.testing.assert_array_equal(trace_read(path).blocks.view(np.uint32),
                                  blocks.view(np.uint32))

