#!/usr/bin/env python3
"""divdiff benchmark: end-to-end throughput and memory, or per-layer traces.

Run from the repository root:

    python3 benchmarks/run.py --workload replay-mid --seed 1 --seconds 40 --trace 0

The library is imported from ./src; the benchmark builds its own inputs
from --seed and hands divdiff only those inputs. Blocks of each guidance
(none, odd, dpp) are interleaved until --seconds have passed, in one
process with the BLAS thread count fixed. With --trace 0 the last line of
stdout is the JSON result with every end-to-end metric, its times rescaled
to nominal machine speed by a speed gauge (see SpeedGauge); with --trace 1
every block runs twice, once with the public functions wrapped in spans
(see tracing.py), and the result carries every per-layer metric instead. Spans and details
go to .bench_out/ under the repository root. README.md next to this file
explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Fixed at or below nproc, and set before numpy loads OpenBLAS.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "none.tokens_per_s": "tokens/s",
    "odd.tokens_per_s": "tokens/s",
    "dpp.tokens_per_s": "tokens/s",
    "none.peak_alloc_mb": "MiB",
    "odd.peak_alloc_mb": "MiB",
    "dpp.peak_alloc_mb": "MiB",
}

PER_LAYER = {
    "engine.step_ms": "ms",
    "engine.commit_ms": "ms",
    "engine.sample_ms": "ms",
    "engine.rng_ms": "ms",
    "engine.rng_streams": "count",
    "engine.sample_useful_share": "ratio",
    "models.predict_ms": "ms",
    "models.predict_calls": "count",
    "trace.predict_ms": "ms",
    "trace.write_s": "s",
    "trace.read_s": "s",
    "trace.bytes": "bytes",
    "features.unified_ms": "ms",
    "features.extract_ms": "ms",
    "features.quality_ms": "ms",
    "features.backprop_ms": "ms",
    "features.backprop_rows": "count",
    "linalg.softmax_vjp_calls": "count",
    "linalg.softmax_vjp_ms": "ms",
    "linalg.cholesky_calls": "count",
    "odd.step_ms": "ms",
    "odd.losses_ms": "ms",
    "odd.project_calls": "count",
    "odd.active_share": "ratio",
    "odd.peak_bsv": "tensors",
    "dpp.step_ms": "ms",
    "dpp.kernel_ms": "ms",
    "dpp.retries": "count",
    "dpp.peak_bsv": "tensors",
    "state.copy_ms": "ms",
    "harness.cell_self_ms": "ms",
    "harness.cells_failed": "count",
    "reporting.aggregate_ms": "ms",
    "bench.trace_overhead_share": "ratio",
    "bench.unattributed_share": "ratio",
}

MIB = float(1 << 20)
MIN_BLOCKS = 2   # per guidance, so every run also checks that a block repeats


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    return parser.parse_args(argv)


def _cache_sizes() -> dict:
    """L2/L3 sizes in MiB, read-only from sysfs; empty where unavailable."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            raw = (index / "size").read_text().strip()
            if level in ("2", "3") and raw.endswith("K"):
                sizes[f"L{level}_MiB"] = int(raw[:-1]) / 1024
    except OSError:
        pass
    return sizes


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        **_cache_sizes(),
    }


def reference_work(shape, repeats: int) -> float:
    """Fixed sampling-like work at `shape` that uses no divdiff code; its wall time."""
    import numpy as np

    b, s, v = shape
    logits = np.random.default_rng(0).standard_normal((b, s, v))
    t0 = time.perf_counter()
    for r in range(repeats):
        z = logits - logits.max(axis=-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        for row in range(b):
            g = np.random.default_rng([r, row]).gumbel(size=(s, v))
            (np.log(p[row]) + g).argmax(axis=-1)
    return time.perf_counter() - t0


class SpeedGauge:
    """The machine's speed on fixed reference work, sampled between timed units.

    The shared reference machine changes speed by up to 1.6x, in spells
    that last from seconds to minutes (see README.md). So every timed unit
    is bracketed by two runs of `reference_work` at the workload's shape,
    and its time is rescaled to the reference machine's nominal speed:
    multiplied by nominal_s over the mean of the two reference times.
    """

    def __init__(self, shape, repeats: int, nominal_s: float):
        self.shape, self.repeats, self.nominal_s = shape, repeats, nominal_s
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the reference work once; returns the sample's index."""
        self.samples.append(reference_work(self.shape, self.repeats))
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Nominal over measured speed, for the unit between samples k and k+1."""
        return self.nominal_s / ((self.samples[k] + self.samples[k + 1]) / 2)


def timed_setup(workload, gauge=None) -> tuple[list[float], dict, float]:
    """Set the workload up setup_reps times; keep the last one.

    Returns the raw set-up times, the trace I/O figures and the gauge's
    scale over the repetitions (1.0 without a gauge).
    """
    times, io = [], {}
    k = gauge.sample() if gauge else None
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        for key, value in workload.io.items():
            io.setdefault(key, []).append(value)
    if gauge:
        gauge.sample()
    return times, io, gauge.scale(k) if gauge else 1.0


class Blocks:
    """Timed blocks, per guidance, untraced and (optionally) traced."""

    def __init__(self, guidances):
        self.rates = {g: [] for g in guidances}
        self.traced_rates = {g: [] for g in guidances}
        self.timed = {g: [] for g in guidances}   # (tokens, seconds, gauge sample)
        self.tokens = {False: 0, True: 0}
        self.seconds = {False: 0.0, True: 0.0}
        self.first = {}
        self.batches = 0
        self.failed = 0
        self.failures: list[str] = []
        self.traced_raised = 0

    def record(self, guidance, batches, tokens, seconds, traced, gauge_k=None) -> None:
        (self.traced_rates if traced else self.rates)[guidance].append(tokens / seconds)
        if not traced:
            self.timed[guidance].append((tokens, seconds, gauge_k))
        self.tokens[traced] += tokens
        self.seconds[traced] += seconds
        reference = self.first.setdefault(guidance, batches)
        for i, batch in enumerate(batches):
            problems = list(batch.failures)
            if reference is not batches:
                ref = reference[i].outputs if i < len(reference) else None
                if batch.outputs is None or ref is None or not (batch.outputs == ref).all():
                    problems.append("did not reproduce the first block")
            self.batches += 1
            if traced and batch.outputs is None:
                self.traced_raised += 1
            if problems:
                self.failed += 1
                self.failures.append(f"{guidance} {batch.label}: {'; '.join(problems)}")

    def tokens_in(self, guidance) -> int:
        return sum(t for t, _, _ in self.timed[guidance])

    def seconds_in(self, guidance) -> float:
        return sum(s for _, s, _ in self.timed[guidance])

    def nominal_rate(self, guidance, gauge) -> float:
        """Tokens per second over all untraced blocks, at the gauge's nominal speed."""
        return self.tokens_in(guidance) / sum(s * gauge.scale(k)
                                              for _, s, k in self.timed[guidance])

    def nominal_rates(self, guidance, gauge) -> list[float]:
        return [t / (s * gauge.scale(k)) for t, s, k in self.timed[guidance]]


def run_blocks(workload, guidances, seconds: float, tracer=None, gauge=None) -> Blocks:
    """Run blocks until `seconds` have passed and each guidance has MIN_BLOCKS.

    The next block always goes to the guidance with the least time so far,
    so each guidance gets about a third of the run whatever its speed, and
    slow drift of the machine touches all three alike. With a tracer each
    block runs twice, traced and untraced, in alternating order. With a
    gauge, a reference sample precedes every untraced block and follows
    the last; the time of the samples does not count towards `seconds`.
    """
    from tracing import ROOT_SPAN

    out = Blocks(guidances)
    spent = dict.fromkeys(guidances, 0.0)
    while (min(len(out.rates[g]) for g in guidances) < MIN_BLOCKS
           or sum(spent.values()) < seconds):
        guidance = min(guidances, key=spent.get)
        n = len(out.rates[guidance])
        modes = (False,) if tracer is None else ((False, True), (True, False))[n % 2]
        for traced in modes:
            gauge_k = gauge.sample() if gauge and not traced else None
            if traced:
                with tracer.patched(), tracer.span(ROOT_SPAN):
                    t0 = time.perf_counter()
                    batches, tokens = workload.block(guidance)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                batches, tokens = workload.block(guidance)
                dt = time.perf_counter() - t0
            spent[guidance] += dt
            out.record(guidance, batches, tokens, dt, traced, gauge_k)
    if gauge:
        gauge.sample()
    return out


def peak_alloc_mib(workload, guidance: str) -> float:
    """tracemalloc peak over one batch, in an untimed pass."""
    from divdiff import engine

    model, config, prompt = workload.generation_inputs()
    tracemalloc.start()
    try:
        engine.run_generation(model, replace(config, guidance=guidance), prompt=prompt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MIB


def hook_peak_bsv(workload, guidances) -> dict:
    """Peak live allocation of one guidance hook call, in (B,S,V) float64 tensors.

    Computed, not counted: tracemalloc's peak over the call divided by
    B*S*V*8 bytes, at the state half-way through an unguided batch.
    """
    import numpy as np

    from divdiff import engine
    from divdiff.state import MaskState, build_schedule

    model, config, prompt = workload.generation_inputs()
    b, s, v = workload.shape
    plen = 0 if prompt is None else len(prompt)
    schedule = build_schedule(s - plen, config.steps)
    unguided = replace(config, guidance="none")
    state = MaskState.fully_masked(b, s, v, prompt)
    half = config.steps // 2
    for t in range(half):
        state = engine.denoise_step(model, state, t, unguided, schedule)
    logits = np.asarray(model.predict(state, half), dtype=np.float64)
    out = {}
    for guidance in guidances:
        hook = engine.make_guidance_hook(replace(config, guidance=guidance))
        tracemalloc.start()
        try:
            hook(logits, state, schedule.steps - half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out[guidance] = peak / (b * s * v * 8)
    return out


def layer_metrics(tracer, blocks: Blocks, io: dict, bsv: dict) -> tuple[dict, dict]:
    """Every per-layer metric, plus notes on how far the trace can be trusted."""
    from tracing import SpanStats

    stats = SpanStats(tracer)
    c = tracer.counts
    attribution_error, unattributed = stats.batch_attribution()
    untraced = blocks.tokens[False] / blocks.seconds[False]
    traced = blocks.tokens[True] / blocks.seconds[True]
    step, call, batch = stats.per_step_ms, stats.per_call_ms, stats.per_batch
    metrics = {
        "engine.step_ms": step("engine.step"),
        "engine.commit_ms": step("engine.step", self_time=True),
        "engine.sample_ms": step("engine.sample"),
        "engine.rng_ms": step("engine.rng"),
        "engine.rng_streams": batch("calls:engine.rng"),
        "engine.sample_useful_share": c["engine.masked_rows"] / max(1, c["engine.sampled_rows"]),
        "models.predict_ms": step("models.predict"),
        "models.predict_calls": batch("calls:models.predict"),
        "trace.predict_ms": step("trace.predict"),
        "trace.write_s": statistics.median(io.get("write_s", [0.0])),
        "trace.read_s": statistics.median(io.get("read_s", [0.0])),
        "trace.bytes": statistics.median(io.get("bytes", [0])),
        "features.unified_ms": step("features.unified"),
        "features.extract_ms": step("features.extract"),
        "features.quality_ms": step("features.quality"),
        "features.backprop_ms": step("features.backprop"),
        "features.backprop_rows": batch("features.backprop_rows"),
        "linalg.softmax_vjp_calls": batch("calls:linalg.softmax_vjp"),
        "linalg.softmax_vjp_ms": step("linalg.softmax_vjp"),
        "linalg.cholesky_calls": batch("calls:linalg.cholesky"),
        "odd.step_ms": step("odd.step"),
        "odd.losses_ms": step("odd.losses"),
        "odd.project_calls": batch("calls:odd.project"),
        "odd.active_share": c["odd.active"] / max(1, c["odd.candidates"]),
        "odd.peak_bsv": bsv.get("odd", 0.0),
        "dpp.step_ms": step("dpp.step"),
        "dpp.kernel_ms": step("dpp.kernel", self_time=True),
        "dpp.retries": c["dpp.retries"],
        "dpp.peak_bsv": bsv.get("dpp", 0.0),
        "state.copy_ms": step("state.copy"),
        "harness.cell_self_ms": call("harness.cell", self_time=True),
        "harness.cells_failed": blocks.traced_raised,
        "reporting.aggregate_ms": call("reporting.aggregate"),
        "bench.trace_overhead_share": 1.0 - traced / untraced,
        "bench.unattributed_share": unattributed,
    }
    notes = {
        "attribution_error": attribution_error,
        "traced_batches": tracer.batches,
        "spans": len(tracer.start),
        "untraced_tokens_per_s": untraced,
        "traced_tokens_per_s": traced,
        "missing_targets": tracer.missing,
        "hook_errors": dict(tracer.hook_errors),
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        import divdiff
    except ImportError as exc:
        print(f"benchmark: cannot import divdiff from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(divdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"benchmark: divdiff was imported from {divdiff.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import GUIDANCES, WORKLOADS, digest, make_workload

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    workload = make_workload(args.workload, args.seed, args.out)
    gauge = None if args.trace else SpeedGauge(*workload.reference)
    setup_times, io, setup_scale = timed_setup(workload, gauge)
    b, s, v = workload.shape
    tensor_mib = b * s * v * 8 / MIB

    # The untimed memory passes run first, so they also warm the full-size
    # allocations up before any block is timed.
    if args.trace:
        bsv = hook_peak_bsv(workload, ("odd", "dpp"))
    else:
        peaks = {g: peak_alloc_mib(workload, g) for g in GUIDANCES}
    tracer = Tracer() if args.trace else None
    blocks = run_blocks(workload, GUIDANCES, args.seconds, tracer, gauge)
    failures = list(blocks.failures)
    attempted, failed = blocks.batches, blocks.failed
    for problems in (workload.setup_failures(), workload.prefix_probe(blocks.first["odd"])):
        attempted += 1
        failed += bool(problems)
        failures += problems
    digests = {g: digest(blocks.first[g]) for g in GUIDANCES}

    if args.trace:
        metrics, notes = layer_metrics(tracer, blocks, io, bsv)
        units = PER_LAYER
        tracer.write(args.out / f"spans-{args.workload}.tsv")
    else:
        metrics = {"setup_s": statistics.median(setup_times) * setup_scale}
        for g in GUIDANCES:
            metrics[f"{g}.tokens_per_s"] = blocks.nominal_rate(g, gauge)
        for g in GUIDANCES:
            metrics[f"{g}.peak_alloc_mb"] = peaks[g]
        notes = {}
        units = END_TO_END

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name}: {workload.describe()}")
    l3 = machine.get("L3_MiB")
    print(f"  (B,S,V) float64 tensor {tensor_mib:.1f} MiB"
          + (f" vs L3 {l3:.1f} MiB" if l3 else ""))
    print(f"  blocks {sum(map(len, blocks.rates.values()))}, batches {blocks.batches}, "
          f"setup repetitions {len(setup_times)}")
    for g in GUIDANCES:
        print(f"  digest {g} sha256:{digests[g]}")
        if args.trace:
            untraced = statistics.median(blocks.rates[g])
            traced = statistics.median(blocks.traced_rates[g])
            print(f"  tracing overhead {g}: {untraced:.1f} untraced vs {traced:.1f} traced "
                  f"tokens/s ({len(blocks.rates[g])}+{len(blocks.traced_rates[g])} blocks)")
    for name in metrics:
        if name == "setup_s":
            count = (f" at nominal speed (median of n={len(setup_times)}; "
                     f"wall clock {statistics.median(setup_times):.6g} s)")
        elif name.endswith("tokens_per_s"):
            g = name.split(".")[0]
            count = (f" at nominal speed (n={len(blocks.rates[g])} blocks; wall clock "
                     f"{blocks.tokens_in(g) / blocks.seconds_in(g):.6g} tokens/s)")
        else:
            count = ""
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{count}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    details = {
        "machine": machine, "workload": workload.name, "seed": args.seed,
        "describe": workload.describe(), "tensor_mib": tensor_mib,
        "setup_seconds": setup_times, "setup_scale": setup_scale, "rates": blocks.rates,
        "nominal_rates": {g: blocks.nominal_rates(g, gauge) for g in GUIDANCES} if gauge else {},
        "gauge_seconds": gauge.samples if gauge else [], "traced_rates": blocks.traced_rates, "digests": digests,
        "failures": failures, "notes": notes, "result": result,
    }
    with open(args.out / f"{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
