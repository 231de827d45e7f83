"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS/FAIL line before asserting so the full scorecard
is visible in one run:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from divdiff.dpp import dpp_loss
from divdiff.engine import GenerationConfig, generate_batch, run_generation
from divdiff.errors import TraceFormatError
from divdiff.features import feature_set
from divdiff.gradcheck import run_dpp_suite, run_odd_suite
from divdiff.harness import (
    GridSpec,
    grid_run,
    invariance_check,
    overhead_profile,
    pairwise_diversity,
    pass_at_k,
)
from divdiff.models import PlantedDenoiser, default_problem
from divdiff.odd import odd_losses, odd_step
from divdiff.state import MaskState, mask_token
from divdiff.trace import trace_read, trace_write

RESCUE_TEMPERATURE = 1.0  # shipped calibration for the mode-collapse benchmark


def scorecard(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")
    return ok


def benchmark_config(task, **overrides):
    fields = dict(
        temperature=RESCUE_TEMPERATURE, steps=task.length - 1, length=task.length,
        batch=16, seed=0,
    )
    fields.update(overrides)
    return GenerationConfig(**fields)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    odd = run_odd_suite(instances=120, seed=101)
    dpp = run_dpp_suite(instances=120, seed=102)
    elapsed = time.perf_counter() - start
    ok = odd.passed and dpp.passed and elapsed < 30.0
    assert scorecard(
        1, ok,
        f"analytic vs central differences on {odd.instances + dpp.instances} instances, "
        f"worst rel err odd={odd.worst:.2e} dpp={dpp.worst:.2e} "
        f"(tolerance 1e-5), {elapsed:.1f}s",
    )


def test_criterion_2_basis_correctness(rng):
    gen = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        logits = gen.normal(0, 1.5, size=(16, 6, 32))
        masked = gen.random((16, 6)) < 0.5
        realized = gen.integers(0, 32, size=(16, 6)).astype(np.int64)
        realized[masked] = mask_token(32)
        state = MaskState(masked, realized, 32)
        odd_step(logits, state, GenerationConfig(alpha=8.0, anneal="off"), t=4)
        fs, _ = feature_set(logits, state)
        _, _, basis = odd_losses(fs, 1e-8)
        gram = np.array([[float(np.dot(a, b)) for b in basis] for a in basis])
        worst = max(worst, np.abs(gram - np.eye(len(basis))).max())
    # duplicated feature vectors never extend the basis
    logits = gen.normal(0, 1.5, size=(1, 6, 32))
    logits = np.repeat(logits, 16, axis=0)
    state = MaskState.fully_masked(16, 6, 32)
    fs, _ = feature_set(logits, state)
    _, _, basis = odd_losses(fs, 1e-8)
    ok = worst <= 1e-7 and len(basis) == 1
    assert scorecard(
        2, ok,
        f"basis Gram within {worst:.1e} of identity on B=16, V=32 batches; "
        f"duplicates left the basis at size {len(basis)}",
    )


def test_criterion_3_prefix_invariance():
    start = time.perf_counter()
    task, prompt = default_problem(0)
    model = PlantedDenoiser(task)
    invariant = {"none": 0, "odd": 0}
    for guidance in ("none", "odd"):
        for seed in range(20):
            config = benchmark_config(
                task, seed=seed, guidance=guidance,
                alpha=16.0 if guidance == "odd" else 0.0,
            )
            if invariance_check(model, config, 8, 8, 16, prompt=prompt):
                invariant[guidance] += 1
    dpp_counterexample = False
    for seed in range(20):
        config = benchmark_config(task, seed=seed, guidance="dpp", alpha=32.0)
        if not invariance_check(model, config, 8, 8, 16, prompt=prompt):
            dpp_counterexample = True
            break
    elapsed = time.perf_counter() - start
    ok = (
        invariant["none"] == 20 and invariant["odd"] == 20
        and dpp_counterexample and elapsed < 60.0
    )
    assert scorecard(
        3, ok,
        f"none {invariant['none']}/20 and odd {invariant['odd']}/20 seeds prefix-"
        f"invariant, dpp counterexample={dpp_counterexample}, {elapsed:.1f}s",
    )


def test_criterion_4_baseline_equivalence():
    task, prompt = default_problem(1)
    model = PlantedDenoiser(task)

    def capture(guidance_kind, alpha):
        captured = []
        config = benchmark_config(task, seed=9, guidance=guidance_kind, alpha=alpha)
        from divdiff.engine import make_guidance_hook

        inner = make_guidance_hook(config)

        def spy(logits, state, remaining):
            out = logits if inner is None else inner(logits, state, remaining)
            captured.append(np.array(out))
            return out

        run_generation(model, config, prompt=prompt, guidance=spy)
        return captured

    plain = capture("none", 0.0)
    zero_alpha = capture("odd", 0.0)
    bit_identical = all(
        np.array_equal(a, b) and a.dtype == b.dtype
        for a, b in zip(plain, zero_alpha)
    )
    # anneal forces alpha_1 = 0 on the final step: input logits pass through
    final_identity = []
    config = benchmark_config(task, seed=9, guidance="odd", alpha=64.0)
    from divdiff.engine import make_guidance_hook

    hook = make_guidance_hook(config)

    def final_spy(logits, state, remaining):
        out = hook(logits, state, remaining)
        if remaining == 1:
            final_identity.append(np.array_equal(out, logits))
        return out

    run_generation(model, config, prompt=prompt, guidance=final_spy)
    ok = bit_identical and final_identity == [True]
    assert scorecard(
        4, ok,
        f"alpha=0 guidance bit-identical across {len(plain)} steps={bit_identical}, "
        f"annealed final step is the identity={final_identity == [True]}",
    )


def test_criterion_5_mode_collapse_rescue():
    start = time.perf_counter()
    problems = [default_problem(p) for p in range(50)]
    greedy_hits = 0
    for p, (task, prompt) in enumerate(problems):
        config = benchmark_config(task, temperature=0.0, seed=p)
        run = run_generation(PlantedDenoiser(task), config, prompt=prompt)
        from divdiff.models import check_answer

        flags = [check_answer(task, seq) for seq in run.sequences]
        collapsed = all(np.array_equal(run.sequences[0], s) for s in run.sequences)
        if any(flags) or not collapsed:
            greedy_hits += 1
    rescue = {}
    for alpha in (8.0, 16.0, 32.0):
        hits = 0
        for p, (task, prompt) in enumerate(problems):
            config = benchmark_config(task, seed=p, guidance="odd", alpha=alpha)
            run = run_generation(PlantedDenoiser(task), config, prompt=prompt)
            from divdiff.models import check_answer

            if any(check_answer(task, seq) for seq in run.sequences):
                hits += 1
        rescue[alpha] = hits / len(problems)
    elapsed = time.perf_counter() - start
    ok = (
        greedy_hits == 0
        and all(v >= 0.5 for v in rescue.values())
        and elapsed < 120.0
    )
    assert scorecard(
        5, ok,
        f"theta=0 baseline pass@16 = pass@1 = 0 on 50/50 problems "
        f"(violations={greedy_hits}); ODD pass@16 at theta={RESCUE_TEMPERATURE}: "
        + ", ".join(f"alpha={a:g}: {v:.2f}" for a, v in rescue.items())
        + f"; {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def table_shape_grid():
    spec = GridSpec(
        temperatures=[0.0, 0.5, 1.0, 1.5, 2.0],
        alphas=[0.0, 2.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        guidances=["odd"],
        seeds=list(range(8)),
        problems=list(range(8)),
    )
    task, _ = default_problem(0)
    base = benchmark_config(task)
    start = time.perf_counter()
    reports, _ = grid_run(spec, default_problem, base)
    elapsed = time.perf_counter() - start
    by_cell = {}
    for r in reports:
        by_cell.setdefault((r.theta, r.alpha), {}).setdefault(r.seed, []).append(r)
    mean16 = {
        cell: np.mean([pass_at_k(group, 16) for group in by_seed.values()])
        for cell, by_seed in by_cell.items()
    }
    return mean16, elapsed


def test_criterion_6_temperature_dominance(table_shape_grid):
    mean16, elapsed = table_shape_grid
    thetas = [0.0, 0.5, 1.0, 1.5, 2.0]
    alphas = [2.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    baseline = {t: mean16[(t, 0.0)] for t in thetas}
    odd = {t: np.mean([mean16[(t, a)] for a in alphas]) for t in thetas}
    dominated = all(odd[t] >= baseline[t] for t in thetas)
    ok = dominated and elapsed < 600.0
    assert scorecard(
        6, ok,
        "mean pass@16 of ODD >= baseline at every theta: "
        + ", ".join(f"{t:g}: {odd[t]:.2f}>={baseline[t]:.2f}" for t in thetas)
        + f"; grid took {elapsed:.0f}s",
    )


def test_criterion_6_temperature_spread(table_shape_grid):
    # Expected red: at temperature 0 the guided sampler is bit-identical to
    # the baseline (identical states give exactly-zero residuals), so both
    # profiles share their theta=0 anchor; with ODD >= baseline everywhere
    # (previous test), ODD's max-min spread cannot drop below the
    # baseline's. See the analysis in the project notes.
    mean16, _ = table_shape_grid
    thetas = [0.0, 0.5, 1.0, 1.5, 2.0]
    alphas = [2.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    baseline = [mean16[(t, 0.0)] for t in thetas]
    odd = [np.mean([mean16[(t, a)] for a in alphas]) for t in thetas]
    spread_odd = max(odd) - min(odd)
    spread_base = max(baseline) - min(baseline)
    ok = spread_odd < spread_base
    assert scorecard(
        6, ok,
        f"spread across theta: ODD {spread_odd:.2f} vs baseline {spread_base:.2f} "
        "(structurally unattainable at desk scale; see decisions ledger)",
    )


def test_criterion_7_diversity_direction():
    wins, seeds = 0, 20
    for seed in range(seeds):
        means = {}
        for guidance, alpha in (("none", 0.0), ("odd", 16.0)):
            values = []
            for theta in (0.0, 0.5):
                for p in range(5):
                    task, prompt = default_problem(p)
                    config = benchmark_config(
                        task, temperature=theta, seed=seed,
                        guidance=guidance, alpha=alpha,
                    )
                    seqs = generate_batch(PlantedDenoiser(task), config, prompt=prompt)
                    values.append(pairwise_diversity(seqs))
            means[guidance] = float(np.mean(values))
        if means["odd"] > means["none"]:
            wins += 1
    ok = wins >= 0.9 * seeds
    assert scorecard(
        7, ok,
        f"mean pairwise diversity at theta <= 0.5: ODD beats baseline on "
        f"{wins}/{seeds} seeds",
    )


def test_criterion_8_dpp_loss_geometry():
    eps = 1e-3
    ordered = all(
        dpp_loss(np.ones((b, b)), eps) > dpp_loss(np.eye(b), eps)
        for b in (2, 4, 8, 16)
    )

    def det_oracle(l_matrix):
        eye = np.eye(l_matrix.shape[0])
        return -(
            np.log(np.linalg.det(l_matrix + eps * eye))
            - np.log(np.linalg.det(l_matrix + (1 + eps) * eye))
        )

    worst = max(
        abs(dpp_loss(m, eps) - det_oracle(m))
        for m in (np.eye(2), np.ones((2, 2)), np.array([[1.0, 0.3], [0.3, 1.0]]))
    )
    ok = ordered and worst <= 1e-8
    assert scorecard(
        8, ok,
        f"identical-feature loss > orthogonal-feature loss for B in 2..16: {ordered}; "
        f"2x2 values within {worst:.1e} of the determinant oracle",
    )


class _CheapDenoiser:
    def __init__(self, vocab=512, length=64, seed=0):
        self.vocab = vocab
        gen = np.random.default_rng(seed)
        self.logits = gen.normal(size=(16, length, vocab))

    def predict(self, state, step):
        return self.logits * 1.0


class _CostlyDenoiser:
    def __init__(self, base, factor=10):
        self.base = base
        self.vocab = base.vocab
        self.factor = factor

    def predict(self, state, step):
        out = None
        for _ in range(self.factor):
            out = self.base.predict(state, step)
        return out


def test_criterion_9_overhead_locality():
    # paired timing: cheap and costly runs interleave within each repeat so
    # ambient load drifts cancel out of the comparison
    from dataclasses import replace

    cheap = _CheapDenoiser()
    costly = _CostlyDenoiser(cheap, factor=10)
    guided = GenerationConfig(
        temperature=1.0, steps=32, length=64, batch=16, seed=0,
        guidance="odd", alpha=16.0,
    )
    baseline = replace(guided, guidance="none")

    def timed_run(model, config):
        t0 = time.perf_counter()
        run = run_generation(model, config)
        return time.perf_counter() - t0, sum(run.guidance_seconds)

    for model in (cheap, costly):  # warm both paths
        timed_run(model, baseline)
        timed_run(model, guided)
    samples = {"cheap": [], "costly": []}
    for _ in range(5):
        for name, model in (("cheap", cheap), ("costly", costly)):
            base_s, _ = timed_run(model, baseline)
            guided_s, hook_s = timed_run(model, guided)
            samples[name].append((base_s, guided_s, hook_s))

    def summarize(rows):
        arr = np.asarray(rows)
        # medians for the wall-clock ratios, minimum (least-noise) for the hook
        return np.median(arr[:, 0]), np.median(arr[:, 1]), arr[:, 2].min()

    cheap_base, cheap_guided, cheap_hook = summarize(samples["cheap"])
    costly_base, costly_guided, costly_hook = summarize(samples["costly"])
    ratio = costly_hook / cheap_hook
    fraction_cheap = (cheap_guided - cheap_base) / cheap_base
    fraction_costly = (costly_guided - costly_base) / costly_base
    hook_local = abs(ratio - 1.0) < 0.2
    fraction_drops = fraction_costly < fraction_cheap
    ok = hook_local and fraction_drops
    assert scorecard(
        9, ok,
        f"hook time ratio costly/cheap = {ratio:.2f} (<20% change); overhead "
        f"fraction {fraction_cheap:.2f} -> {fraction_costly:.2f} strictly decreasing",
    )


def test_criterion_10_trace_round_trip(tmp_path):
    gen = np.random.default_rng(5)
    blocks = gen.normal(size=(32, 16, 64, 1024)).astype(np.float32)
    path = tmp_path / "big.oddt"
    trace_write(path, blocks)
    replay = trace_read(path)
    lossless = np.array_equal(
        replay.blocks.view(np.uint32), blocks.view(np.uint32)
    )
    raw = bytearray(path.read_bytes())
    raw[0] = raw[0] ^ 0xFF
    corrupt = tmp_path / "corrupt.oddt"
    corrupt.write_bytes(bytes(raw))
    rejected = False
    try:
        trace_read(corrupt)
    except TraceFormatError:
        rejected = True
    path.unlink()
    corrupt.unlink()
    ok = lossless and rejected
    assert scorecard(
        10, ok,
        f"(32, 16, 64, 1024) float32 round-trip bitwise lossless={lossless}; "
        f"corrupt header rejected={rejected}",
    )
