"""Spans and counters around divdiff's public functions, for the traced run.

The tracer patches functions at the module that *calls* them: `odd`, `dpp`
and `engine` bind `feature_set`, `backprop_to_logits` and the sampler at
import time, so patching only `divdiff.features` would miss those calls.
Every patch is undone when the `patched()` block exits.

Each span records its name, start, end, parent span, batch id (one
`run_generation` call) and step id (one `denoise_step` call). Spans are
kept in flat arrays in memory and written out at the end of the run. A
span's self time is its duration minus the durations of its children;
since spans nest and never overlap, the self times of one batch's spans
add up to that batch's wall time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from divdiff import dpp, engine, features, harness, linalg, models, odd, reporting, state
from divdiff import trace as trace_io

BATCH_SPAN = "engine.run"
STEP_SPAN = "engine.step"
ROOT_SPAN = "bench.block"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_masked_rows(tracer, args, kwargs):
    tracer.counts["engine.masked_rows"] += int(_arg(args, kwargs, 1, "state").masked.sum())


def _count_sampled_rows(tracer, args, kwargs):
    shape = np.shape(_arg(args, kwargs, 0, "logits"))
    tracer.counts["engine.sampled_rows"] += int(shape[0] * shape[1])


def _count_backprop_rows(tracer, args, kwargs, result):
    # Distinct (sample, masked position) rows that a nonzero feature
    # gradient routes to: the rows whose logits backprop has to change.
    upstream = np.asarray(_arg(args, kwargs, 0, "upstream"))
    routing = _arg(args, kwargs, 1, "fs").routing
    committed = _arg(args, kwargs, 2, "ud").one_hot
    safe = np.maximum(routing, 0)
    live = (routing >= 0) & (upstream != 0)
    live &= ~np.take_along_axis(committed, safe, axis=1)
    keys = np.arange(routing.shape[0])[:, None] * committed.shape[1] + safe
    tracer.counts["features.backprop_rows"] += int(np.unique(keys[live]).size)


def _count_active(tracer, args, kwargs, result):
    directions = result[1]
    tracer.counts["odd.active"] += sum(d is not None for d in directions)
    tracer.counts["odd.candidates"] += len(directions)


def _count_retry(tracer, exc):
    if type(exc).__name__ == "FactorizationError":
        tracer.counts["dpp.retries"] += 1


def targets():
    """(owner, attribute, name, options) for every patched call site."""
    return [
        (engine, "run_generation", BATCH_SPAN, {"opens": "batch"}),
        (harness, "run_generation", BATCH_SPAN, {"opens": "batch"}),
        (harness, "run_single", "harness.cell", {}),
        (reporting, "aggregate_reports", "reporting.aggregate", {}),
        (engine, "denoise_step", STEP_SPAN, {"opens": "step", "on_enter": _count_masked_rows}),
        (engine, "sample_tokens", "engine.sample", {"on_enter": _count_sampled_rows}),
        (engine, "sample_stream", "engine.rng", {}),
        (models.PlantedDenoiser, "predict", "models.predict", {}),
        (trace_io.ReplayDenoiser, "predict", "trace.predict", {}),
        (state.MaskState, "copy", "state.copy", {}),
        (odd, "odd_step", "odd.step", {}),
        (dpp, "dpp_step", "dpp.step", {}),
        (odd, "feature_set", "features.feature_set", {}),
        (dpp, "feature_set", "features.feature_set", {}),
        (features, "unified_distribution", "features.unified", {}),
        (features, "extract_features", "features.extract", {}),
        (features, "quality_scores", "features.quality", {}),
        (odd, "backprop_to_logits", "features.backprop", {"on_exit": _count_backprop_rows}),
        (dpp, "backprop_to_logits", "features.backprop", {"on_exit": _count_backprop_rows}),
        (odd, "odd_losses", "odd.losses", {"on_exit": _count_active}),
        (odd, "project_onto_basis", "odd.project", {"span": False}),
        (dpp, "dpp_grad_logits", "dpp.kernel", {}),
        (linalg, "softmax_vjp", "linalg.softmax_vjp", {}),
        (linalg, "cholesky_logdet", "linalg.cholesky", {"span": False, "on_error": _count_retry}),
        (linalg, "spd_inverse", "linalg.cholesky", {"span": False, "on_error": _count_retry}),
    ]


class Tracer:
    """In-memory span recorder with per-name call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.batch = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()
        self.batches = 0
        self._stack: list[int] = []
        self._batch = -1
        self._step = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int, opens: str | None) -> tuple[int, int, int]:
        saved = (self._batch, self._step)
        idx = len(self.start)
        if opens == "batch":
            self._batch = self.batches
            self.batches += 1
        elif opens == "step":
            self._step = idx
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.batch.append(self._batch)
        self.step.append(self._step)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx, saved[0], saved[1]

    def _close(self, idx: int, batch: int, step: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._batch, self._step = batch, step

    @contextmanager
    def span(self, name: str):
        idx, batch, step = self._open(self._name_id(name), None)
        try:
            yield
        finally:
            self._close(idx, batch, step)

    def _run_hook(self, hook, *args) -> None:
        try:
            hook(self, *args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.hook_errors[f"{hook.__name__}: {type(exc).__name__}: {exc}"] += 1

    def wrap(self, fn, name: str, span: bool = True, opens: str | None = None,
             on_enter=None, on_exit=None, on_error=None):
        tracer = self
        name_id = self._name_id(name)
        calls_key = f"calls:{name}"

        def wrapper(*args, **kwargs):
            tracer.counts[calls_key] += 1
            if on_enter is not None:
                tracer._run_hook(on_enter, args, kwargs)
            if span:
                idx, batch, step = tracer._open(name_id, opens)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                if span:
                    tracer._close(idx, batch, step)
            if on_exit is not None:
                tracer._run_hook(on_exit, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Patch every target that exists, and restore all of them on exit."""
        undo = []
        try:
            for owner, attr, name, options in targets():
                original = vars(owner).get(attr)
                if original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                setattr(owner, attr, self.wrap(original, name, **options))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # ---- analysis -------------------------------------------------------

    def arrays(self) -> dict:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name": name, "parent": parent, "start": start, "dur": dur,
            "self": dur - covered,
            "batch": np.frombuffer(self.batch, dtype=np.int32),
            "step": np.frombuffer(self.step, dtype=np.int32),
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tbatch\tstep\tstart_us\tend_us\n")
            for i in range(a["name"].size):
                fh.write(
                    f"{i}\t{self.names[a['name'][i]]}\t{a['parent'][i]}\t"
                    f"{a['batch'][i]}\t{a['step'][i]}\t"
                    f"{(a['start'][i] - t0) * 1e6:.3f}\t"
                    f"{(a['start'][i] + a['dur'][i] - t0) * 1e6:.3f}\n"
                )


class SpanStats:
    """Per-step, per-call and per-batch summaries of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.a = tracer.arrays()

    def _mask(self, name: str) -> np.ndarray:
        ids = self.tracer._ids
        if name not in ids:
            return np.zeros(self.a["name"].shape, dtype=bool)
        return self.a["name"] == ids[name]

    def per_step_ms(self, name: str, self_time: bool = False) -> float:
        """Median over the steps a phase ran in, of its total time in that step."""
        mask = self._mask(name) & (self.a["step"] >= 0)
        if not mask.any():
            return 0.0
        values = self.a["self" if self_time else "dur"][mask]
        _, inverse = np.unique(self.a["step"][mask], return_inverse=True)
        return float(np.median(np.bincount(inverse, weights=values)) * 1e3)

    def per_call_ms(self, name: str, self_time: bool = False) -> float:
        mask = self._mask(name)
        if not mask.any():
            return 0.0
        return float(np.median(self.a["self" if self_time else "dur"][mask]) * 1e3)

    def per_batch(self, key: str) -> float:
        batches = self.tracer.batches
        return self.tracer.counts[key] / batches if batches else 0.0

    def batch_attribution(self) -> tuple[float, float]:
        """(largest |sum of self times - wall| / wall over batches, unattributed share).

        A batch's wall time is its `engine.run` span; the unattributed
        share is the part of all batches' wall time that no child span
        covers, i.e. the self time of `engine.run`.
        """
        roots = self._mask(BATCH_SPAN)
        if not roots.any():
            return 0.0, 0.0
        batch = self.a["batch"]
        inside = batch >= 0
        sums = np.bincount(batch[inside], weights=self.a["self"][inside],
                           minlength=self.tracer.batches)
        walls = np.zeros(self.tracer.batches)
        walls[batch[roots]] = self.a["dur"][roots]
        error = float(np.max(np.abs(sums - walls) / walls))
        share = float(self.a["self"][roots].sum() / self.a["dur"][roots].sum())
        return error, share
