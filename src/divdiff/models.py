"""Desk-scale denoisers: a planted multi-template task and a bigram model.

The planted task hides a small set of candidate answer sequences. Its
denoiser computes a posterior over templates from each sample's committed
tokens and emits the posterior-weighted token mixture (plus a uniform
noise floor) as logits, which makes greedy decoding collapse onto the
skewed template while leaving the other templates reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, json_fields
from .state import MaskState

DEFAULT_VOCAB = 48
DEFAULT_LENGTH = 12
DEFAULT_TEMPLATES = 8
DEFAULT_CORRECT = 2
DEFAULT_SKEW = 0.85
DEFAULT_NOISE_FLOOR = 1e-3

_TASK_STREAM_SALT = 0x7A5C3D


@dataclass(frozen=True)
class PlantedTask:
    """A finite answer set with a skewed prior and an exact-match checker."""

    vocab: int
    length: int
    templates: np.ndarray        # (M, S) int64
    correct: frozenset
    skew: float = DEFAULT_SKEW
    noise_floor: float = DEFAULT_NOISE_FLOOR

    def __post_init__(self):
        t = np.asarray(self.templates, dtype=np.int64)
        object.__setattr__(self, "templates", t)
        object.__setattr__(self, "correct", frozenset(int(c) for c in self.correct))
        if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] != self.length:
            raise InvalidInputError("PlantedTask: need >= 2 templates of the task length")
        if t.min() < 0 or t.max() >= self.vocab:
            raise InvalidInputError("PlantedTask: template token id outside the vocabulary")
        if len({row.tobytes() for row in t}) != t.shape[0]:
            raise InvalidInputError("PlantedTask: templates must be pairwise distinct")
        if not 0 < self.skew <= 1:
            raise InvalidInputError("PlantedTask: skew must lie in (0, 1]")
        if not 0 <= self.noise_floor < 1:
            raise InvalidInputError("PlantedTask: noise floor must lie in [0, 1)")
        if not self.correct or not all(0 <= c < t.shape[0] for c in self.correct):
            raise InvalidInputError("PlantedTask: correct set must name existing templates")

    @property
    def num_templates(self) -> int:
        return self.templates.shape[0]

    def prior(self) -> np.ndarray:
        """Template prior: `skew` on template 0, the rest shared evenly."""
        m = self.num_templates
        p = np.full(m, (1.0 - self.skew) / (m - 1))
        p[0] = self.skew
        return p

    def to_json(self) -> dict:
        return {
            "vocab": self.vocab,
            "length": self.length,
            "templates": self.templates.tolist(),
            "correct": sorted(self.correct),
            "skew": self.skew,
            "noise_floor": self.noise_floor,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PlantedTask":
        """The task of a JSON document, cast nowhere (see _TASK_FIELDS)."""
        fields = json_fields("PlantedTask", doc, _TASK_FIELDS,
                             {"skew": DEFAULT_SKEW, "noise_floor": DEFAULT_NOISE_FLOOR})
        try:
            return cls(**fields)
        except (OverflowError, ValueError) as exc:  # ragged or out-of-range templates
            raise InvalidInputError(f"PlantedTask: bad task document ({exc})") from exc


_TASK_FIELDS = {
    **dict.fromkeys(("vocab", "length"), ((int,), 0, "a JSON integer")),
    "templates": ((int,), 2, "a list of lists of JSON integers"),
    "correct": ((int,), 1, "a list of JSON integers"),
    **dict.fromkeys(("skew", "noise_floor"), ((int, float), 0, "a finite JSON number")),
}


def _greedy_survivor(minority: np.ndarray, token_pairs: np.ndarray) -> int:
    """Template index (1-based) that greedy decoding settles on.

    Committing a row's majority token removes the minority members from the
    alternative family; ties between equal-mass sides resolve toward the
    lower token id, matching argmax semantics.
    """
    alive = list(range(minority.shape[1]))
    for s in range(minority.shape[0]):
        if len(alive) == 1:
            break
        in_minority = [m for m in alive if minority[s, m]]
        out_minority = [m for m in alive if not minority[s, m]]
        if not in_minority or not out_minority:
            continue
        if len(out_minority) > len(in_minority):
            alive = out_minority
        elif len(in_minority) > len(out_minority):
            alive = in_minority
        else:
            keep_minority = token_pairs[s, 1] < token_pairs[s, 0]
            alive = in_minority if keep_minority else out_minority
    return alive[0] + 1


def default_task(problem: int) -> PlantedTask:
    """Deterministic benchmark task for a problem id.

    Template 0 has its own token at every position, so unconditioned
    greedy decoding collapses onto it. The seven alternatives share the
    answer-key token at position 0 and split each later row between a
    majority and a minority token according to per-row codes, so once the
    key is fixed the family stays balanced and every completion of it is a
    valid template. Template 0 is never correct, and neither is the
    template that conditioned greedy decoding collapses to.
    """
    if problem < 0:
        raise InvalidInputError(f"default_task: problem id must be >= 0, got {problem}")
    rng = np.random.default_rng([_TASK_STREAM_SALT, int(problem)])
    length = DEFAULT_LENGTH
    alts = DEFAULT_TEMPLATES - 1
    rows = length - 1
    minority_size = max(1, (alts - 1) // 3)
    # disjoint token pools: template-0 row tokens, majority/minority pair
    # per row, answer-key token, leaving the rest of the vocabulary as noise
    pool = rng.permutation(DEFAULT_VOCAB)
    key = int(pool[0])
    t0_tokens = pool[1 : 1 + length]
    pair_flat = pool[1 + length : 1 + length + 2 * rows]
    token_pairs = pair_flat.reshape(rows, 2)  # column 0 majority, column 1 minority
    while True:
        minority = np.zeros((rows, alts), dtype=bool)
        for s in range(rows):
            minority[s, rng.permutation(alts)[:minority_size]] = True
        if len({minority[:, m].tobytes() for m in range(alts)}) == alts:
            break
    templates = np.empty((DEFAULT_TEMPLATES, length), dtype=np.int64)
    templates[0] = t0_tokens
    for m in range(alts):
        templates[m + 1, 0] = key
        templates[m + 1, 1:] = np.where(minority[:, m], token_pairs[:, 1], token_pairs[:, 0])
    survivor = _greedy_survivor(minority, token_pairs)
    # mark the rarest alternatives (most minority rows) as the answers, so
    # finding them genuinely requires leaving the high-probability modes
    rarity = minority.sum(axis=0) + rng.random(alts)  # random tie-break
    order = sorted(
        (m for m in range(1, DEFAULT_TEMPLATES) if m != survivor),
        key=lambda m: -rarity[m - 1],
    )
    return PlantedTask(DEFAULT_VOCAB, length, templates, frozenset(order[:DEFAULT_CORRECT]))


def default_prompt(task: PlantedTask) -> np.ndarray:
    """Conditioning prefix for a default task: the shared answer-key token."""
    return task.templates[1, :1].copy()


def default_problem(problem: int) -> tuple[PlantedTask, np.ndarray]:
    """Task plus its conditioning prompt for one benchmark problem."""
    task = default_task(problem)
    return task, default_prompt(task)


class PlantedDenoiser:
    """Denoiser of a planted task; length is a shape hint (see
    config.generation_config)."""

    def __init__(self, task: PlantedTask):
        self.task = task
        self.vocab = task.vocab
        self.length = task.length
        # the task is frozen, so its prior and template one-hot are built once
        m = task.num_templates
        self._prior = task.prior()
        self._onehot = np.zeros((m, task.length, task.vocab), dtype=np.float64)
        rows = np.repeat(np.arange(m), task.length)
        cols = np.tile(np.arange(task.length), m)
        self._onehot[rows, cols, task.templates.ravel()] = 1.0

    def predict(self, state: MaskState, step: int) -> np.ndarray:
        """Logits from the posterior-weighted template mixture plus a noise floor.

        Templates inconsistent with a sample's committed tokens get zero
        posterior weight; if nothing remains consistent, the prior is used.
        """
        task = self.task
        if state.length != task.length or state.vocab != task.vocab:
            raise InvalidInputError("PlantedDenoiser: state does not match the task shape")
        # consistent[i, j]: template j agrees with every committed token of sample i
        agree = task.templates[None, :, :] == state.realized[:, None, :]
        consistent = np.all(agree | state.masked[:, None, :], axis=2)
        posterior = consistent * self._prior[None, :]
        totals = posterior.sum(axis=1)
        dead = totals == 0.0
        if dead.any():
            posterior[dead] = self._prior
            totals[dead] = 1.0
        posterior = posterior / totals[:, None]
        mixture = np.einsum("bm,msv->bsv", posterior, self._onehot)
        probs = (1.0 - task.noise_floor) * mixture + task.noise_floor / task.vocab
        return np.log(probs)


def check_answer(task: PlantedTask, output) -> bool | np.ndarray:
    """True iff the fully realized output equals a correct template exactly;
    an (n, S) stack of outputs gets an (n,) bool array of those flags."""
    seqs = np.asarray(output, dtype=np.int64)
    if seqs.ndim not in (1, 2) or seqs.shape[-1] != task.length:
        raise InvalidInputError("check_answer: output does not match the task length")
    if seqs.size and (seqs.min() < 0 or seqs.max() >= task.vocab):
        raise InvalidInputError("check_answer: output contains non-vocabulary ids")
    correct = task.templates[sorted(task.correct)]
    flags = np.all(seqs[..., None, :] == correct, axis=-1).any(axis=-1)
    return bool(flags) if seqs.ndim == 1 else flags


class BigramDenoiser:
    """Add-one-smoothed bigram denoiser trained on a token corpus.

    A masked position's distribution averages the left neighbor's forward
    transition row and the right neighbor's reverse transition row; a
    masked or absent neighbor contributes the corpus unigram instead.
    """

    def __init__(self, vocab: int, forward: np.ndarray, reverse: np.ndarray,
                 unigram: np.ndarray):
        self.vocab = vocab
        self.forward = forward
        self.reverse = reverse
        self.unigram = unigram

    def predict(self, state: MaskState, step: int) -> np.ndarray:
        if state.vocab != self.vocab:
            raise InvalidInputError("BigramDenoiser: vocabulary mismatch")
        b, s = state.batch, state.length
        known = ~state.masked[:, :, None]
        # committed tokens index the transition rows; masked ones read row 0,
        # never the mask id, and take the unigram instead
        ids = np.where(state.masked, 0, state.realized)
        left = np.tile(self.unigram, (b, s, 1))
        right = np.tile(self.unigram, (b, s, 1))
        left[:, 1:] = np.where(known[:, :-1], self.forward[ids[:, :-1]], self.unigram)
        right[:, :-1] = np.where(known[:, 1:], self.reverse[ids[:, 1:]], self.unigram)
        return np.log(0.5 * (left + right))


def bigram_train(corpus, vocab: int) -> BigramDenoiser:
    """Count bigrams over the corpus sequences with add-one smoothing."""
    sequences = [np.asarray(seq, dtype=np.int64) for seq in corpus]
    if not sequences:
        raise InvalidInputError("bigram_train: empty corpus")
    for seq in sequences:
        if seq.ndim != 1 or (seq.size and (seq.min() < 0 or seq.max() >= vocab)):
            raise InvalidInputError("bigram_train: corpus token id outside the vocabulary")
    fwd = np.ones((vocab, vocab), dtype=np.float64)
    uni = np.ones(vocab, dtype=np.float64)
    for seq in sequences:
        np.add.at(uni, seq, 1.0)
        if seq.size >= 2:
            np.add.at(fwd, (seq[:-1], seq[1:]), 1.0)
    rev = fwd.T.copy()
    forward = fwd / fwd.sum(axis=1, keepdims=True)
    reverse = rev / rev.sum(axis=1, keepdims=True)
    unigram = uni / uni.sum()
    return BigramDenoiser(vocab, forward, reverse, unigram)
