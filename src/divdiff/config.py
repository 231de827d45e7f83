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
from .errors import InvalidInputError, json_value
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
            problem = json_value("model.problem", spec.get("problem", 0))
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
        json_value("model.corpus", corpus, "a list of lists of JSON integers", depth=2)
        if json_value("model.vocab", vocab) < 1:
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
    return json_value("prompt", spec, 'a list of JSON integers, "default" or "none"', depth=1)


def generation_config(doc: dict, model=None, prompt=None) -> GenerationConfig:
    """Resolve the generation knobs. A model's optional length, batch and
    steps attributes are shape hints: its length is the default length,
    its batch replaces the configured one and its steps cap the count.
    GenerationConfig checks every knob; length and steps, which the shape
    hints need first, are checked here when the document gives them."""
    length = doc.get("length")
    if length is None:
        length = getattr(model, "length", None) or GenerationConfig.length
    else:
        json_value("length", length)
    plen = 0 if prompt is None else len(prompt)
    if plen >= length:
        raise InvalidInputError(
            f"prompt has {plen} tokens; it must be shorter than the length ({length})"
        )
    batch = getattr(model, "batch", None) or doc.get("batch", DEFAULTS["batch"])
    steps = doc.get("steps")
    if steps is None:
        steps = min(GenerationConfig.steps, length - plen)
    else:
        json_value("steps", steps)
    model_steps = getattr(model, "steps", None)
    if model_steps is not None:
        steps = min(steps, model_steps)
    return GenerationConfig(
        steps=steps,
        length=length,
        batch=batch,
        anneal=_anneal_mode(doc.get("anneal", DEFAULTS["anneal"])),
        feature_top_k=doc.get("feature_top_k"),
        **{key: doc.get(key, DEFAULTS[key])
           for key in ("temperature", "seed", "guidance", "alpha", "tolerance", "jitter")},
    )


def grid_spec(doc: dict) -> GridSpec:
    section = doc.get("grid", {})
    if not isinstance(section, dict):
        raise InvalidInputError(f"grid must be an object, got {section!r}")
    grid = {**DEFAULT_GRID, **section}

    def knob_values(key, knob):
        """grid.<key>: a list of values the GenerationConfig field knob accepts."""
        items = grid[key]
        if not isinstance(items, list):
            raise InvalidInputError(f"grid.{key} must be a list, got {items!r}")
        for item in items:
            try:
                GenerationConfig(**{knob: item})
            except InvalidInputError as exc:
                raise InvalidInputError(f"grid.{key}: {exc}") from None
        return items

    seeds, problems = (json_value(f"grid.{key}", grid[key], "a list of JSON integers", depth=1)
                       for key in ("seeds", "problems"))
    if any(p < 0 for p in problems):
        raise InvalidInputError(f"grid.problems must be >= 0, got {problems!r}")
    return GridSpec(
        temperatures=knob_values("temperatures", "temperature"),
        alphas=knob_values("alphas", "alpha"),
        guidances=knob_values("guidances", "guidance"),
        seeds=seeds,
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
