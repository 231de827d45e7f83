"""Reverse generation loop with confidence remasking and a guidance hook.

Each step asks the denoiser for a full logits batch, lets the configured
guidance rewrite those logits, samples proposals, and commits the highest
confidence masked positions per the schedule. Randomness comes from
streams keyed by (seed, sample, step), so every sample's draws are
independent of the batch size and of the host thread count. A run
computes its streams' uniforms a block of steps at a time, each block in
one vectorized pass (see streams.stream_uniforms); they are the same
draws the per-key sample_stream Generators give. One run can stack
several seeds' batches (run_generation's seeds) and pay each step's fixed
cost once for all of them.
GenerationConfig, frozen and checked as it is built or replaced, is the
one definition of every knob; the guidance steps read theirs from it.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InvalidInputError, is_integer
from .features import group_rows
from .linalg import softmax_rows
from .state import MaskState, Schedule, build_schedule
# sample_stream, the reference definition of a stream, stays importable here
from .streams import sample_stream, stream_uniforms

GUIDANCE_KINDS = ("none", "odd", "dpp")
ANNEAL_MODES = ("factor", "linear", "off")

# Uniforms per stream_uniforms call in a run. A call has a fixed cost of
# a few hundred microseconds, several times that of its draws at toy
# scale (B16 S12: 192 per step), so a run draws many steps per call; the
# cap keeps a run's stream memory independent of its number of steps.
_BLOCK_DRAWS = 4096


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for one generation run; an invalid value raises
    InvalidInputError when the config is built or replaced. The float
    knobs are stored as Python floats."""

    temperature: float = 0.0
    steps: int = 32
    length: int = 64
    batch: int = 16
    seed: int = 0
    guidance: str = "none"
    alpha: float = 16.0
    tolerance: float = 1e-8
    jitter: float = 1e-3
    anneal: str = "factor"
    feature_top_k: int | None = None

    def __post_init__(self):
        for name in ("steps", "length", "batch", "seed", "feature_top_k"):
            value = getattr(self, name)
            if not (is_integer(value) or (name == "feature_top_k" and value is None)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for name in ("temperature", "alpha", "tolerance", "jitter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidInputError(f"{name} must be a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise InvalidInputError(f"{name} must be finite, got {number}")
            object.__setattr__(self, name, number)
        if self.temperature < 0:
            raise InvalidInputError("temperature must be >= 0")
        if self.steps < 1 or self.length < 1 or self.batch < 1:
            raise InvalidInputError("steps, length and batch must be >= 1")
        if self.guidance not in GUIDANCE_KINDS:
            raise InvalidInputError(f"unknown guidance {self.guidance!r}")
        if self.anneal not in ANNEAL_MODES:
            raise InvalidInputError(f"unknown anneal mode {self.anneal!r}")
        if self.alpha < 0:
            raise InvalidInputError("alpha must be >= 0")
        if self.tolerance <= 0 or self.jitter <= 0:
            raise InvalidInputError("tolerance and jitter must be > 0")
        if self.feature_top_k is not None and self.feature_top_k < 1:
            raise InvalidInputError("feature_top_k must be >= 1 when set")


def sample_tokens(logits, temperature: float, uniforms,
                  masked=None) -> tuple[np.ndarray, np.ndarray]:
    """Propose one token with its confidence at every masked position.

    masked is a (B, S) bool array of the positions to sample; None samples
    every position. temperature 0 takes the per-position argmax (ties to
    the lowest token id) with confidence 1 and ignores uniforms (None is
    fine). Otherwise uniforms is a (B, S) array, one uniform per position
    whether masked or not (row i is sample i's stream, see
    stream_uniforms), and every sampled position inverts the CDF of
    softmax(logits / theta) at its uniform; the confidence is the drawn
    token's probability.
    Positions outside masked get proposal -1 and confidence -inf. Only
    the sampled rows are gathered and normalized.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 3:
        raise InvalidInputError("sample_tokens: expected a (B, S, V) logits batch")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("sample_tokens: non-finite logits")
    if not 0 <= temperature < math.inf:
        raise InvalidInputError(f"sample_tokens: temperature must be finite and >= 0, "
                                f"got {temperature}")
    b, s, v = x.shape
    rows = np.ones((b, s), dtype=bool) if masked is None else np.asarray(masked, dtype=bool)
    if rows.shape != (b, s):
        raise InvalidInputError(f"sample_tokens: mask {rows.shape} != ({b}, {s})")
    proposals = np.full((b, s), -1, dtype=np.int64)
    confidences = np.full((b, s), -np.inf)
    z = x[rows]
    if temperature == 0.0:
        proposals[rows] = np.argmax(z, axis=-1)
        confidences[rows] = 1.0
        return proposals, confidences
    u = np.asarray(uniforms, dtype=np.float64)
    if u.shape != (b, s):
        raise InvalidInputError(f"sample_tokens: uniforms {u.shape} != ({b}, {s})")
    u = u[rows]
    z /= temperature
    probs = softmax_rows(z, out=z)
    cdf = np.cumsum(probs, axis=-1)
    drawn = np.minimum(np.count_nonzero(cdf < u[:, None], axis=-1), v - 1)
    proposals[rows] = drawn
    confidences[rows] = probs[np.arange(drawn.size), drawn]
    return proposals, confidences


def make_guidance_hook(config: GenerationConfig, groups: int = 1):
    """Build the per-step logits hook for the configured guidance, or None.

    groups is the number of independent batches stacked in the logits
    (see run_generation's seeds); guidance couples samples only inside
    their own batch.
    """
    if config.guidance == "none":
        return None
    # imported as the hook is built, so a patched odd_step or dpp_step is the one it calls
    if config.guidance == "odd":
        from .odd import odd_step as step
    else:
        from .dpp import dpp_step as step
    return lambda logits, state, remaining: step(logits, state, config, remaining, groups)


def denoise_step(model, state: MaskState, t: int, config: GenerationConfig,
                 schedule: Schedule, guidance=None, uniforms=None) -> MaskState:
    """One reverse step: predict, guide, sample, commit the top confidences.

    Per sample, the unmask_counts[t] masked positions with the highest
    confidence are committed (ties to the lowest position index); the rest
    stay masked. Committed positions are never revisited. uniforms is this
    step's (B, S) block of the run's streams (run_generation passes the
    rows it drew ahead); None computes them here.
    """
    if not 0 <= t < schedule.steps:
        raise InvalidInputError(f"denoise_step: step {t} outside [0, {schedule.steps})")
    logits = np.asarray(model.predict(state, t), dtype=np.float64)
    expected = (state.batch, state.length, state.vocab)
    if logits.shape != expected:
        raise ContractError(f"model returned logits {logits.shape}, expected {expected}")
    if guidance is not None:
        logits = np.asarray(guidance(logits, state, schedule.steps - t), dtype=np.float64)
        if logits.shape != expected:
            raise ContractError("guidance hook changed the logits shape")
    # argmax proposals (temperature 0) consume no randomness
    if uniforms is None and config.temperature > 0.0:
        uniforms = stream_uniforms(config.seed, state.batch, [t], state.length)[0]
    proposals, confidences = sample_tokens(logits, config.temperature, uniforms, state.masked)
    need = schedule.unmask_counts[t]
    available = state.masked.sum(axis=1)
    short = np.flatnonzero(available < need)
    if short.size:
        i = short[0]
        raise ContractError(
            f"sample {i} has {available[i]} masked positions, schedule needs {need}"
        )
    # stable sort: ties go to the lowest position; unmasked rows (-inf) sort last
    chosen = np.argsort(-confidences, axis=1, kind="stable")[:, :need]
    rows = np.arange(state.batch)[:, None]
    out = state.copy()
    out.realized[rows, chosen] = proposals[rows, chosen]
    out.masked[rows, chosen] = False
    return out


def _step_uniforms(config: GenerationConfig, steps: int, seeds):
    """Every step's (k*B, S) uniforms in order, drawn a block of steps at a
    time, rows j*B to (j+1)*B - 1 from seeds[j]; None for every step at
    temperature 0."""
    if config.temperature == 0.0:
        yield from [None] * steps
        return
    block = max(1, _BLOCK_DRAWS // (config.batch * config.length))
    for start in range(0, steps, block):
        draws = [stream_uniforms(seed, config.batch, range(start, min(start + block, steps)),
                                 config.length) for seed in seeds]
        yield from draws[0] if len(draws) == 1 else np.concatenate(draws, axis=1)


@dataclass
class GenerationRun:
    """Everything one run produced, including hook timings: sequences is
    the (rows, S) int64 array of finished token ids."""

    sequences: np.ndarray
    guidance_seconds: list[float] = field(default_factory=list)
    total_seconds: float = 0.0

    def split(self, parts: int) -> list["GenerationRun"]:
        """The runs of `parts` equal batches stacked in this one, in stacking
        order, their sequences views of these rows; each is charged 1/parts
        of the hook and total seconds."""
        b = group_rows(len(self.sequences), parts, "GenerationRun.split")
        hook = [s / parts for s in self.guidance_seconds]
        return [GenerationRun(self.sequences[i:i + b], list(hook), self.total_seconds / parts)
                for i in range(0, len(self.sequences), b)]


def _check_seeds(seeds) -> tuple:
    """seeds as a tuple of ints; InvalidInputError unless a non-empty
    sequence of integers (bools are not seeds)."""
    entries = tuple(seeds) if np.iterable(seeds) else ()
    if not entries or not all(map(is_integer, entries)):
        raise InvalidInputError(f"seeds must be a non-empty sequence of integers, got {seeds!r}")
    return tuple(int(s) for s in entries)


def run_generation(model, config: GenerationConfig, prompt=None,
                   guidance="auto", seeds=None) -> GenerationRun:
    """Run all steps from the fully masked state and return the full record.

    Deterministic given (seed, model, config). Pass guidance explicitly to
    override the hook built from the config (None disables guidance).

    seeds (default (config.seed,)) stacks k independent batches of
    config.batch samples into one state of k*B rows: every step makes one
    predict, one hook call and one sampling pass for all of them. Rows
    j*B to (j+1)*B - 1 draw from seeds[j] and equal the solo run with that
    seed bit for bit (GenerationRun.split takes them apart). Stacking
    needs a model whose rows are independent of each other; the built-in
    hook couples samples only inside their own batch, while an explicit
    hook sees all k*B rows.
    """
    seeds = (config.seed,) if seeds is None else _check_seeds(seeds)
    prompt_arr = None if prompt is None else np.asarray(prompt, dtype=np.int64)
    plen = 0 if prompt_arr is None else prompt_arr.size
    if plen >= config.length:
        raise InvalidInputError("prompt must be shorter than the generation length")
    schedule = build_schedule(config.length - plen, config.steps)
    rows = len(seeds) * config.batch
    state = MaskState.fully_masked(rows, config.length, model.vocab, prompt_arr)
    hook = make_guidance_hook(config, len(seeds)) if guidance == "auto" else guidance
    times: list[float] = []
    timed = None
    if hook is not None:
        def timed(logits, st, remaining):
            t0 = time.perf_counter()
            result = hook(logits, st, remaining)
            times.append(time.perf_counter() - t0)
            return result
    start = time.perf_counter()
    for t, uniforms in enumerate(_step_uniforms(config, schedule.steps, seeds)):
        state = denoise_step(model, state, t, config, schedule, timed, uniforms)
    total = time.perf_counter() - start
    if state.masked.any():
        raise ContractError("generation finished with masked positions")
    return GenerationRun(state.realized, times, total)


def generate_batch(model, config: GenerationConfig, prompt=None) -> list[np.ndarray]:
    """Generate a batch of fully realized sequences, one row each."""
    return list(run_generation(model, config, prompt).sequences)

