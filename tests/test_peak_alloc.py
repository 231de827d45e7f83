"""Structural numbers: how many (B, S, V) float64 tensors one call holds at once.

Each case is the peak extra tracemalloc bytes of one warm call at mid
shape, B16·S64·V512 with half the rows masked and random logits, divided
by B·S·V·8. Unlike a time or a fault count it repeats from run to run
and does not depend on the BLAS thread count, so a change that adds a
full-size temporary to a step fails here. Each ceiling sits just above
the value the current code measures; a change that lowers a value lowers
its ceiling with it.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from divdiff.dpp import dpp_step
from divdiff.engine import GenerationConfig, sample_tokens
from divdiff.features import unified_distribution
from divdiff.odd import odd_step

B, S, V = 16, 64, 512
CONFIG = GenerationConfig(steps=8, length=S, batch=B, alpha=16.0)

# measured: 1.1266, 2.1160, 2.1161, 1.0823, 0.5058
CEILINGS = {
    "unified_distribution": 1.13,
    "odd_step": 2.12,
    "dpp_step": 2.12,
    "sample_tokens_theta1": 1.09,
    "sample_tokens_theta0": 0.51,
}


@pytest.fixture(scope="module")
def calls():
    gen = np.random.default_rng(0)
    logits = gen.normal(0.0, 1.5, size=(B, S, V))
    state = random_state(gen, B, S, V)
    uniforms = gen.random((B, S))
    return {
        "unified_distribution": lambda: unified_distribution(logits, state),
        "odd_step": lambda: odd_step(logits, state, CONFIG, 4),
        "dpp_step": lambda: dpp_step(logits, state, CONFIG, 4),
        "sample_tokens_theta1": lambda: sample_tokens(logits, 1.0, uniforms, state.masked),
        "sample_tokens_theta0": lambda: sample_tokens(logits, 0.0, None, state.masked),
    }


def peak_tensors(call) -> float:
    """Peak extra bytes of one warm call, in (B, S, V) float64 tensors."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (B * S * V * 8)


@pytest.mark.parametrize("name", list(CEILINGS))
def test_peak_allocation_stays_under_its_ceiling(calls, name):
    assert peak_tensors(calls[name]) <= CEILINGS[name]
