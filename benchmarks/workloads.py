"""The benchmark's workloads: inputs made from a seed, batches run through divdiff.

Every workload runs the same three guidances (none, odd, dpp) at alpha 16.
A *block* is the unit of timed work: on `planted-grid` one `grid_run` call
over a slice of the criterion-6 grid, on the replay workloads one batch.
Every block of a guidance repeats the same inputs, so each must reproduce
the first bit for bit. Why each workload exists, and which layer metrics
it should move, is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from divdiff import engine, harness
from divdiff.engine import GenerationConfig
from divdiff.models import PlantedDenoiser, default_problem
from divdiff.state import mask_token
from divdiff.trace import ReplayDenoiser, trace_read, trace_write

GUIDANCES = ("none", "odd", "dpp")
ALPHA = 16.0
RESCUE_FLOOR = 0.5   # criterion 5: odd pass@16 at temperature 1
PROBE_BATCH = 8      # odd's first 8 outputs at B=8 must equal those at B=16
LOGIT_PEAK = 6.0     # added to one token per row of the synthetic logits


@dataclass
class Batch:
    """One generated batch and everything found wrong with it."""

    label: str
    outputs: np.ndarray | None   # (B, S) int64, None when the batch raised
    failures: list[str] = field(default_factory=list)


def check_outputs(outputs: np.ndarray, vocab: int) -> list[str]:
    if (outputs == mask_token(vocab)).any():
        return ["left a masked position"]
    if outputs.min() < 0 or outputs.max() >= vocab:
        return ["emitted an id outside the vocabulary"]
    return []


def digest(batches) -> str:
    h = hashlib.sha256()
    for batch in batches:
        if batch.outputs is not None:
            h.update(np.ascontiguousarray(batch.outputs, dtype="<i8").tobytes())
    return h.hexdigest()


def synthetic_logits(rng, steps: int, batch: int, length: int, vocab: int) -> np.ndarray:
    """Gaussian float32 logits with one raised token per row, one block per step."""
    blocks = np.empty((steps, batch, length, vocab), dtype=np.float32)
    for block in blocks:
        rng.standard_normal(out=block, dtype=np.float32)
        peaks = rng.integers(0, vocab, size=(batch, length, 1))
        np.put_along_axis(block, peaks,
                          np.take_along_axis(block, peaks, axis=-1) + LOGIT_PEAK, axis=-1)
    return blocks


class PlantedGrid:
    """Toy planted task, B16·S12·V48, 11 steps, a slice of the criterion-6 grid."""

    name = "planted-grid"
    setup_reps = 25
    reference = ((16, 12, 48), 400, 0.33)   # speed gauge: shape, repeats, nominal s
    thetas = (0.0, 1.0, 2.0)

    def __init__(self, seed: int, problems=range(10), n_seeds: int = 3):
        rng = np.random.default_rng([seed, 0xB1])
        self.seeds = sorted(int(s) for s in rng.choice(1 << 20, size=n_seeds, replace=False))
        self.problems = list(problems)
        self.io = {}

    def setup(self) -> None:
        self.tasks = {p: default_problem(p) for p in self.problems}
        task, prompt = self.tasks[self.problems[0]]
        self.task0, self.prompt0 = task, prompt
        self.base = GenerationConfig(
            temperature=1.0, steps=task.length - 1, length=task.length,
            batch=16, seed=self.seeds[0], alpha=ALPHA,
        )
        self.shape = (self.base.batch, task.length, task.vocab)
        self.tokens_per_batch = self.base.batch * (task.length - len(prompt))
        for guidance in GUIDANCES:
            harness.run_single(task, replace(self.base, guidance=guidance), prompt=prompt)

    def setup_failures(self) -> list[str]:
        return []

    def describe(self) -> str:
        b, s, v = self.shape
        return (f"B{b} S{s} V{v}, {self.base.steps} steps, problems "
                f"{self.problems[0]}-{self.problems[-1]}, seeds {self.seeds}, "
                f"theta {list(self.thetas)}, alpha {ALPHA:g}")

    def block(self, guidance: str) -> tuple[list[Batch], int]:
        spec = harness.GridSpec(
            temperatures=list(self.thetas), alphas=[ALPHA], guidances=[guidance],
            seeds=self.seeds, problems=self.problems,
        )
        reports, _ = harness.grid_run(spec, self.tasks.__getitem__, self.base, jobs=1)
        batches = [self._batch(r) for r in reports]
        if guidance == "odd":
            self._check_rescue(reports, batches)
        done = sum(not r.failed for r in reports)
        return batches, done * self.tokens_per_batch

    def _batch(self, report) -> Batch:
        label = f"p{report.problem}-s{report.seed}-th{report.theta:g}"
        if report.failed:
            return Batch(label, None, [f"raised {report.error}"])
        outputs = np.asarray(report.outputs, dtype=np.int64)
        failures = check_outputs(outputs, self.shape[2])
        if report.guidance == "none" and report.theta == 0.0:
            if any(report.correct) or not (outputs == outputs[0]).all():
                failures.append("unguided theta=0 batch stopped collapsing")
        return Batch(label, outputs, failures)

    def _check_rescue(self, reports, batches) -> None:
        at_one = [(r, b) for r, b in zip(reports, batches) if r.theta == 1.0]
        if not at_one or any(r.failed for r, _ in at_one):
            return
        per_seed = {}
        for report, _ in at_one:
            per_seed.setdefault(report.seed, []).append(report)
        k = self.base.batch
        rate = float(np.mean([harness.pass_at_k(g, k) for g in per_seed.values()]))
        if rate < RESCUE_FLOOR:
            for _, batch in at_one:
                batch.failures.append(f"odd pass@{k} at theta=1 is {rate:.2f} < {RESCUE_FLOOR}")

    def generation_inputs(self):
        """(model, config, prompt) of one representative batch."""
        return PlantedDenoiser(self.task0), self.base, self.prompt0

    def prefix_probe(self, first_odd: list[Batch]) -> list[str]:
        model, config, prompt = self.generation_inputs()
        config = replace(config, guidance="odd")
        full = engine.run_generation(model, config, prompt=prompt).sequences
        small = engine.run_generation(model, replace(config, batch=PROBE_BATCH),
                                      prompt=prompt).sequences
        if not all(np.array_equal(small[i], full[i]) for i in range(PROBE_BATCH)):
            return [f"odd prefix probe: first {PROBE_BATCH} outputs differ between "
                    f"B={PROBE_BATCH} and B={config.batch}"]
        return []


class Replay:
    """Synthetic peaked logits replayed through `ReplayDenoiser`."""

    def __init__(self, name: str, seed: int, batch: int, length: int, vocab: int,
                 steps: int, reference, trace_path: Path | None = None, setup_reps: int = 3):
        self.name = name
        self.seed = seed
        self.shape = (batch, length, vocab)
        self.steps = steps
        self.trace_path = trace_path
        self.setup_reps = setup_reps
        self.reference = ((batch, length, vocab), *reference)
        self.tokens_per_batch = batch * length
        self.model = None
        self.io = {}

    def setup(self) -> None:
        self.model = None  # release the previous repetition's blocks first
        b, s, v = self.shape
        rng = np.random.default_rng([self.seed, 0x0DD7])
        blocks = synthetic_logits(rng, self.steps, b, s, v)
        self.sampler_seed = int(rng.integers(1 << 31))
        self.io = {}
        if self.trace_path is None:
            self.model = ReplayDenoiser(blocks)
        else:
            t0 = time.perf_counter()
            trace_write(self.trace_path, blocks)
            t1 = time.perf_counter()
            self.model = trace_read(self.trace_path)
            t2 = time.perf_counter()
            self.io = {
                "write_s": t1 - t0, "read_s": t2 - t1,
                "bytes": self.trace_path.stat().st_size,
                "round_trip": np.array_equal(self.model.blocks.view(np.uint32),
                                             blocks.view(np.uint32)),
            }
        self.config = GenerationConfig(
            temperature=1.0, steps=self.steps, length=s, batch=b,
            seed=self.sampler_seed, alpha=ALPHA,
        )
        warm = ReplayDenoiser(blocks[:2, :4, :8])
        for guidance in GUIDANCES:
            engine.run_generation(warm, GenerationConfig(
                temperature=1.0, steps=warm.steps, length=warm.length, batch=warm.batch,
                seed=0, guidance=guidance, alpha=ALPHA,
            ))

    def describe(self) -> str:
        b, s, v = self.shape
        source = "ODDT file" if self.trace_path is not None else "in memory"
        return (f"B{b} S{s} V{v}, {self.steps} steps, logits {source}, "
                f"sampler seed {self.sampler_seed}, alpha {ALPHA:g}")

    def setup_failures(self) -> list[str]:
        if self.io and not self.io["round_trip"]:
            return ["trace_read did not return the logits trace_write wrote"]
        return []

    def block(self, guidance: str) -> tuple[list[Batch], int]:
        label = f"seed{self.sampler_seed}"
        try:
            run = engine.run_generation(self.model, replace(self.config, guidance=guidance))
        except Exception as exc:  # a raising batch is a failed operation
            return [Batch(label, None, [f"raised {type(exc).__name__}: {exc}"])], 0
        outputs = np.stack(run.sequences)
        return [Batch(label, outputs, check_outputs(outputs, self.shape[2]))], outputs.size

    def generation_inputs(self):
        return self.model, self.config, None

    def prefix_probe(self, first_odd: list[Batch]) -> list[str]:
        reference = first_odd[0].outputs
        if reference is None:
            return ["odd prefix probe: the B=16 batch raised"]
        small = ReplayDenoiser(self.model.blocks[:, :PROBE_BATCH])
        config = replace(self.config, guidance="odd", batch=PROBE_BATCH)
        outputs = np.stack(engine.run_generation(small, config).sequences)
        if not np.array_equal(outputs, reference[:PROBE_BATCH]):
            return [f"odd prefix probe: first {PROBE_BATCH} outputs differ between "
                    f"B={PROBE_BATCH} and B={self.shape[0]}"]
        return []


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "planted-grid":
        return PlantedGrid(seed)
    if name == "replay-mid":
        return Replay(name, seed, 16, 64, 512, 16, reference=(6, 0.15),
                      trace_path=out_dir / "replay-mid.oddt", setup_reps=5)
    if name == "replay-large":
        return Replay(name, seed, 16, 256, 4096, 4, reference=(1, 0.78))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("planted-grid", "replay-mid", "replay-large")
