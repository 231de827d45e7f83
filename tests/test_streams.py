import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divdiff.errors import InvalidInputError
from divdiff.streams import sample_stream, stream_uniforms

# Property tests draw the same examples on every run, and leave no
# example database behind.
settings.register_profile("divdiff", derandomize=True, database=None, deadline=None)
settings.load_profile("divdiff")

# one and two seed words, the top of the 64-bit range, and negative or
# oversized seeds, which are reduced mod 2**64
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -1, -(2**63), 2**64 + 7]


def reference(seed, batch, steps, length):
    out = np.empty((len(steps), batch, length))
    for row, t in enumerate(steps):
        for i in range(batch):
            out[row, i] = sample_stream(seed, i, t).random(length)
    return out


def with_edge_seeds(test):
    for seed in EDGE_SEEDS:
        test = example(seed=seed, batch=3, steps=[0, 1, 2**32 - 1], length=5)(test)
    return example(seed=2**63 + 5, batch=64, steps=list(range(64)), length=64)(test)


@settings(max_examples=60)
@with_edge_seeds
@given(
    seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(-(2**64), 2**66)),
    batch=st.integers(0, 64),
    steps=st.lists(st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)), max_size=64),
    length=st.integers(0, 64),
)
def test_equals_reference_streams(seed, batch, steps, length):
    got = stream_uniforms(seed, batch, steps, length)
    assert got.shape == (len(steps), batch, length)
    np.testing.assert_array_equal(got, reference(seed, batch, steps, length))


def test_one_step_is_a_row_of_the_run():
    run = stream_uniforms(11, 4, range(6), 9)
    for t in range(6):
        np.testing.assert_array_equal(stream_uniforms(11, 4, [t], 9)[0], run[t])


@pytest.mark.parametrize("steps", [[-1], [2**32]])
def test_rejects_steps_outside_uint32(steps):
    with pytest.raises(InvalidInputError):
        stream_uniforms(0, 2, steps, 3)
