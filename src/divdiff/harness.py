"""Measurement harness: pass@k, diversity, invariance, grids, and overhead.

pass@k uses prefix semantics (the first k of a batch), which is the right
estimator here because guided samples within a batch are dependent. Grid
cells are independent pure functions of their configuration, so they can
run in parallel, and cells that differ only in seed run as one stacked
batch; aggregation is a single sorted reduction over reports.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .engine import GUIDANCE_KINDS, GenerationConfig, GenerationRun, run_generation
from .errors import InvalidInputError, json_fields
from .models import PlantedDenoiser, PlantedTask, check_answer

@dataclass
class RunReport:
    """One generation run: outputs, correctness flags, and timings."""

    problem: int
    guidance: str
    theta: float
    alpha: float
    seed: int
    outputs: list = field(default_factory=list)   # list of token-id lists
    correct: list = field(default_factory=list)   # list of bool
    guidance_seconds: float = 0.0
    total_seconds: float = 0.0
    per_step_guidance_seconds: list = field(default_factory=list)
    failed: bool = False
    error: str = ""

    @property
    def batch(self) -> int:
        return len(self.outputs)

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "RunReport":
        """The report of a JSON document, cast nowhere (see _REPORT_FIELDS)."""
        if not isinstance(doc, dict) or type(doc.get("schema")) is not int or doc["schema"] != 1:
            raise InvalidInputError("RunReport: unsupported document schema")
        fields = json_fields("RunReport", doc, _REPORT_FIELDS, {
            "guidance_seconds": 0.0, "total_seconds": 0.0, "per_step_guidance_seconds": [],
            "failed": False, "error": ""})
        if fields["guidance"] not in GUIDANCE_KINDS:
            raise InvalidInputError(
                f"RunReport: guidance must be one of {', '.join(GUIDANCE_KINDS)}")
        # an ungraded run (no answer checker) carries no flags at all
        if fields["correct"] and len(fields["correct"]) != len(fields["outputs"]):
            raise InvalidInputError("RunReport: flags and outputs disagree in length")
        for key in ("theta", "alpha", "guidance_seconds", "total_seconds"):
            fields[key] = float(fields[key])
        return cls(**fields)


_REPORT_FIELDS = {
    **dict.fromkeys(("problem", "seed"), ((int,), 0, "a JSON integer")),
    **dict.fromkeys(("theta", "alpha", "guidance_seconds", "total_seconds"),
                    ((int, float), 0, "a finite JSON number")),
    **dict.fromkeys(("guidance", "error"), ((str,), 0, "a string")),
    "failed": ((bool,), 0, "a boolean"),
    "correct": ((bool,), 1, "a list of booleans"),
    "outputs": ((int,), 2, "a list of lists of JSON integers"),
    "per_step_guidance_seconds": ((int, float), 1, "a list of finite JSON numbers"),
}


@dataclass
class GridSpec:
    """The experiment grid: every combination becomes one run."""

    temperatures: list
    alphas: list
    guidances: list
    seeds: list
    problems: list

    def __post_init__(self):
        for name in ("temperatures", "alphas", "guidances", "seeds", "problems"):
            if not getattr(self, name):
                raise InvalidInputError(f"GridSpec: {name} must be non-empty")

    def cells(self):
        """Unique cells; baseline guidance collapses its alpha axis to 0."""
        seen = set()
        for guidance, theta, alpha, seed, problem in itertools.product(
            self.guidances, self.temperatures, self.alphas, self.seeds, self.problems
        ):
            if guidance == "none":
                alpha = 0.0
            key = (guidance, float(theta), float(alpha), seed, problem)
            if key not in seen:
                seen.add(key)
                yield key


def build_report(run: GenerationRun, config: GenerationConfig, problem: int = 0,
                 task: PlantedTask | None = None) -> RunReport:
    """The report of a finished run; a task grades every sample, and
    without one the report is ungraded (no correctness flags)."""
    return RunReport(
        problem=problem,
        guidance=config.guidance,
        theta=config.temperature,
        alpha=config.alpha if config.guidance != "none" else 0.0,
        seed=config.seed,
        outputs=run.sequences.tolist(),
        correct=[] if task is None else check_answer(task, run.sequences).tolist(),
        guidance_seconds=float(sum(run.guidance_seconds)),
        total_seconds=run.total_seconds,
        per_step_guidance_seconds=list(run.guidance_seconds),
    )


def run_single(task: PlantedTask, config: GenerationConfig, problem: int = 0,
               prompt=None) -> RunReport:
    """Generate one batch on a planted task and grade every sample."""
    run = run_generation(PlantedDenoiser(task), config, prompt=prompt)
    return build_report(run, config, problem, task)


def pass_at_k(reports, k: int) -> float:
    """Fraction of problems whose first k outputs contain a correct one."""
    reports = list(reports)
    if not reports:
        raise InvalidInputError("pass_at_k: no reports")
    if k < 1:
        raise InvalidInputError("pass_at_k: k must be >= 1")
    for report in reports:
        if k > report.batch:
            raise InvalidInputError(
                f"pass_at_k: k={k} exceeds batch size {report.batch}"
            )
    hits = sum(1 for report in reports if any(report.correct[:k]))
    return hits / len(reports)


def pairwise_diversity(items) -> float:
    """Mean over unordered pairs of one minus cosine similarity.

    Token sequences are turned into L2-normalized vocabulary histograms;
    float vectors are compared directly. One Gram matrix of the normalized
    rows gives every pair's similarity; each term is clipped to [0, 2].
    """
    rows = [np.asarray(item) for item in items]
    if len(rows) < 2:
        raise InvalidInputError("pairwise_diversity: need at least two items")
    if rows[0].dtype.kind in "iu":
        width = int(max(r.max() for r in rows)) + 1
        rows = [np.bincount(r, minlength=width) for r in rows]
    x = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = x / np.where(norms > 0, norms, 1.0)
    upper = np.triu_indices(len(x), k=1)
    return float(np.mean(np.clip(1.0 - (x @ x.T)[upper], 0.0, 2.0)))


def invariance_check(model, config: GenerationConfig, m: int, b1: int, b2: int,
                     prompt=None) -> bool:
    """Do the first m outputs agree between batch sizes b1 and b2?"""
    if not (1 <= m <= b1 < b2):
        raise InvalidInputError("invariance_check: need 1 <= m <= b1 < b2")
    small = run_generation(model, replace(config, batch=b1), prompt=prompt).sequences
    large = run_generation(model, replace(config, batch=b2), prompt=prompt).sequences
    return np.array_equal(small[:m], large[:m])


def _run_stack(task_factory, base_config, key, seeds) -> list[RunReport]:
    """The reports of the cells that differ only in seed, from one stacked run.

    If a stack of several seeds raises, each seed reruns as a stack of one,
    which is its run_single run bit for bit, so every report (a failed
    one's error included) is the one that cell gives by itself. A stack of
    one that raises is recorded as a failed report, never fatal.
    """
    guidance, theta, alpha, problem = key
    config = replace(base_config, guidance=guidance, temperature=theta, alpha=alpha)
    try:
        task, prompt = task_factory(problem)
        run = run_generation(PlantedDenoiser(task), config, prompt=prompt, seeds=seeds)
    except Exception as exc:
        if len(seeds) > 1:
            return [report for seed in seeds
                    for report in _run_stack(task_factory, base_config, key, [seed])]
        return [RunReport(problem=problem, guidance=guidance, theta=theta, alpha=alpha,
                          seed=seeds[0], failed=True, error=f"{type(exc).__name__}: {exc}")]
    return [build_report(part, replace(config, seed=seed), problem, task)
            for seed, part in zip(seeds, run.split(len(seeds)))]


def grid_run(spec: GridSpec, task_factory, base_config: GenerationConfig,
             jobs: int = 1, log=None):
    """Run every grid cell and aggregate pass@k per configuration.

    task_factory(problem) returns the (task, prompt) pair of a problem
    (default_problem is one); prompt may be None. A cell whose factory
    call or run raises is recorded as a failed report.

    Cells that differ only in seed run as one stacked batch (see
    run_generation's seeds; stacking needs a model whose rows are
    independent, as the planted model's are): one factory call and one
    run per (guidance, theta, alpha, problem), each cell charged 1/k of
    the stack's hook and total seconds. A stack that raises reruns its
    seeds as stacks of one, so every report otherwise equals the cell's
    run_single report; reports come back in spec.cells() order, and
    jobs > 1 runs that many stacks at once.

    Returns (reports, aggregates); aggregates come from aggregate_reports,
    so regenerating them later from persisted reports is bit-identical.
    """
    from .reporting import aggregate_reports

    cells = list(spec.cells())
    stacks: dict[tuple, list] = {}
    for guidance, theta, alpha, seed, problem in cells:
        stacks.setdefault((guidance, theta, alpha, problem), []).append(seed)

    run_stack = partial(_run_stack, task_factory, base_config)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(run_stack, stacks, stacks.values()))
    else:
        done = list(map(run_stack, stacks, stacks.values()))
    by_cell = {(guidance, theta, alpha, seed, problem): report
               for ((guidance, theta, alpha, problem), seeds), group in zip(stacks.items(), done)
               for seed, report in zip(seeds, group)}
    reports = [by_cell[cell] for cell in cells]
    if log is not None:
        for cell, report in zip(cells, reports):
            status = "failed" if report.failed else "ok"
            log(f"cell guidance={cell[0]} theta={cell[1]} alpha={cell[2]} "
                f"seed={cell[3]} problem={cell[4]}: {status}")
    return reports, aggregate_reports(reports)


def overhead_profile(model, config: GenerationConfig, repeats: int = 3, prompt=None):
    """Compare the runs' own timings with and without guidance under
    identical seeds and prompt.

    After one warm-up round, the baseline (guidance "none") and the
    configured run alternate. Returns the median total_seconds (the step
    loop) of each, the relative overhead fraction, and the median time
    spent inside the guidance hook itself. An unguided config is its own
    baseline, so it reports zero overhead.
    """
    baseline = replace(config, guidance="none")
    runs = {baseline: [], config: []}  # one entry when config is the baseline
    for round_ in range(max(1, repeats) + 1):  # round 0 warms up both paths
        for cfg, record in runs.items():
            run = run_generation(model, cfg, prompt=prompt)
            if round_:
                record.append(run)
    base_s = float(np.median([run.total_seconds for run in runs[baseline]]))
    guided_s = float(np.median([run.total_seconds for run in runs[config]]))
    return {
        "baseline_seconds": base_s,
        "guided_seconds": guided_s,
        "overhead_fraction": (guided_s - base_s) / base_s,
        "hook_seconds": float(np.median([sum(run.guidance_seconds) for run in runs[config]])),
    }
