"""Single JSON configuration schema shared by every command.

A document carries the generation knobs (temperature, steps, length,
batch, seed, guidance, alpha, tolerance, jitter, anneal), a model section
selecting a denoiser, optional grid lists, and a versioned "schema"
field. Command-line overrides use dotted keys; the ODD_SEED environment
variable overrides the seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .engine import GenerationConfig
from .errors import InvalidInputError
from .harness import GridSpec
from .models import PlantedDenoiser, PlantedTask, bigram_train, default_prompt, default_task
from .trace import trace_read

SCHEMA_VERSION = 1

DEFAULT_GRID = {
    "temperatures": [0.0, 0.5, 1.0, 1.5, 2.0],
    "alphas": [2.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    "guidances": ["none", "odd"],
    "seeds": list(range(8)),
    "problems": list(range(10)),
}

# a knob's default is the GenerationConfig field's
DEFAULTS = {
    **{key: getattr(GenerationConfig, key) for key in
       ("temperature", "batch", "seed", "guidance", "alpha", "tolerance", "jitter")},
    "anneal": True,
    "prompt": "default",
    "model": {"kind": "planted", "problem": 0},
}


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise InvalidInputError(f"config file not found: {path}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("config root must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise InvalidInputError(
            f"config schema {schema!r} not supported (expected {SCHEMA_VERSION})"
        )
    return {**DEFAULTS, **doc, "schema": SCHEMA_VERSION}


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply repeatable KEY=VALUE overrides; dotted keys reach nested maps."""
    out = json.loads(json.dumps(doc))  # deep copy via JSON round-trip
    for item in assignments or []:
        if "=" not in item:
            raise InvalidInputError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise InvalidInputError(f"override {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return out


def apply_env(doc: dict, environ=None) -> dict:
    env = os.environ if environ is None else environ
    if "ODD_SEED" in env:
        try:
            doc = dict(doc, seed=int(env["ODD_SEED"]))
        except ValueError as exc:
            raise InvalidInputError(f"ODD_SEED is not an integer: {env['ODD_SEED']!r}") from exc
    return doc


def _anneal_mode(value):
    """anneal true/false as the factor/off mode; GenerationConfig checks the rest."""
    if isinstance(value, bool):
        return "factor" if value else "off"
    return value


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _model_file(root: Path, spec: dict, key: str, read):
    """read(path) of file model.<key>; a missing file, or one read rejects
    (ValueError: bad JSON, bytes that are not UTF-8, a malformed trace),
    is a config error naming the key, as is a value that is not a string."""
    if not isinstance(spec[key], str):
        raise InvalidInputError(f"model.{key} must be a file path, got {spec[key]!r}")
    path = root / spec[key]
    if not path.is_file():
        raise InvalidInputError(f"model.{key}: file not found: {path}")
    try:
        return read(path)
    except ValueError as exc:
        raise InvalidInputError(f"model.{key}: cannot read {path} ({exc})") from None


def build_model(doc: dict, base_dir=None):
    """Instantiate the configured denoiser; returns (model, task-or-None)."""
    spec = doc.get("model", DEFAULTS["model"])
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInputError("model section must be an object with a 'kind'")
    kind = spec["kind"]
    root = Path(base_dir) if base_dir else Path.cwd()
    if kind == "planted":
        if "task" in spec:
            task = PlantedTask.from_json(spec["task"])
        elif "task_path" in spec:
            task = PlantedTask.from_json(_model_file(root, spec, "task_path", _read_json))
        else:
            problem = _cast("model.problem", spec.get("problem", 0), int)
            try:
                task = default_task(problem)
            except InvalidInputError as exc:
                raise InvalidInputError(f"model.problem: {exc}") from None
        return PlantedDenoiser(task), task
    if kind == "bigram":
        vocab = spec.get("vocab")
        corpus = spec.get("corpus")
        if corpus is None and "corpus_path" in spec:
            corpus = _model_file(root, spec, "corpus_path", _read_json)
        if vocab is None or corpus is None:
            raise InvalidInputError("bigram model needs 'vocab' and 'corpus'")
        if not isinstance(corpus, list) or not all(isinstance(seq, list) for seq in corpus):
            raise InvalidInputError("model.corpus must be a list of token lists")
        corpus = [[_cast("model.corpus", token, int) for token in seq] for seq in corpus]
        vocab = _cast("model.vocab", vocab, int)
        if vocab < 1:
            raise InvalidInputError(f"model.vocab must be >= 1, got {vocab}")
        return bigram_train(corpus, vocab), None
    if kind == "trace":
        if "path" not in spec:
            raise InvalidInputError("trace model needs a 'path'")
        return _model_file(root, spec, "path", trace_read), None
    raise InvalidInputError(f"unknown model kind {kind!r}")


def resolve_prompt(doc: dict, task=None):
    """Conditioning prefix: explicit token list, "default", or none."""
    spec = doc.get("prompt", DEFAULTS["prompt"])
    if spec is None or spec == "none":
        return None
    if spec == "default":
        return None if task is None else default_prompt(task)
    if not isinstance(spec, list):
        raise InvalidInputError(f'prompt must be a token list, "default" or "none", got {spec!r}')
    return [_cast("prompt", t, int) for t in spec]


def _cast(key: str, value, kind):
    """A numeric knob as kind (int or float). A bool, a non-number or, for
    an int knob, a non-integral value is a config error naming the key."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = kind(value)
        if kind is int and number != value and not isinstance(value, str):
            raise ValueError(value)
        return number
    except (TypeError, ValueError, OverflowError):
        article = "an integer" if kind is int else "a number"
        raise InvalidInputError(f"{key} must be {article}, got {value!r}") from None


def generation_config(doc: dict, model=None, prompt=None) -> GenerationConfig:
    """Resolve the generation knobs. A model's optional length, batch and
    steps attributes are shape hints: its length is the default length,
    its batch replaces the configured one and its steps cap the count."""

    def knob(key, kind):
        return _cast(key, doc.get(key, DEFAULTS[key]), kind)

    length = doc.get("length")
    if length is None:
        length = getattr(model, "length", None) or GenerationConfig.length
    length = _cast("length", length, int)
    plen = 0 if prompt is None else len(prompt)
    if plen >= length:
        raise InvalidInputError(
            f"prompt has {plen} tokens; it must be shorter than the length ({length})"
        )
    batch = getattr(model, "batch", None) or knob("batch", int)
    steps = doc.get("steps")
    if steps is None:
        steps = min(GenerationConfig.steps, length - plen)
    steps = _cast("steps", steps, int)
    model_steps = getattr(model, "steps", None)
    if model_steps is not None:
        steps = min(steps, model_steps)
    top_k = doc.get("feature_top_k")
    return GenerationConfig(
        temperature=knob("temperature", float),
        steps=steps,
        length=length,
        batch=batch,
        seed=knob("seed", int),
        guidance=str(doc.get("guidance", DEFAULTS["guidance"])),
        alpha=knob("alpha", float),
        tolerance=knob("tolerance", float),
        jitter=knob("jitter", float),
        anneal=_anneal_mode(doc.get("anneal", DEFAULTS["anneal"])),
        feature_top_k=None if top_k is None else _cast("feature_top_k", top_k, int),
    )


def grid_spec(doc: dict) -> GridSpec:
    grid = dict(DEFAULT_GRID)
    grid.update(doc.get("grid", {}))

    def values(key, kind=None, knob=None):
        items = grid[key]
        if not isinstance(items, list):
            raise InvalidInputError(f"grid.{key} must be a list, got {items!r}")
        if kind is not None:
            items = [_cast(f"grid.{key}", item, kind) for item in items]
        if knob is not None:  # the GenerationConfig field that checks each item
            for item in items:
                try:
                    GenerationConfig(**{knob: item})
                except InvalidInputError as exc:
                    raise InvalidInputError(f"grid.{key}: {exc}") from None
        return items

    problems = values("problems", int)
    if any(p < 0 for p in problems):
        raise InvalidInputError(f"grid.problems must be >= 0, got {problems!r}")
    return GridSpec(
        temperatures=values("temperatures", float, "temperature"),
        alphas=values("alphas", float, "alpha"),
        guidances=values("guidances", knob="guidance"),
        seeds=values("seeds", int),
        problems=problems,
    )


def echo_config(doc: dict, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "effective_config.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
