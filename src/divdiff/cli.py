"""Command-line entry point.

Exit codes: 0 ok, 1 check failure (gradcheck), 2 configuration error,
3 runtime error. Every command is deterministic given its config and
seed; timings are the only exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfg
from . import gradcheck, reporting
from .engine import run_generation
from .errors import DivDiffError, InvalidInputError, json_value
from .harness import build_report, grid_run, invariance_check, overhead_profile
from .trace import ReplayDenoiser


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divdiff",
        description="Diversity-guided sampling for masked diffusion language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        else:
            p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value (repeatable, dotted keys)")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    common(sub.add_parser("generate", help="run one batch and print the outputs"))
    common(sub.add_parser("grid", help="run the full experiment grid"))
    common(sub.add_parser("gradcheck", help="finite-difference gradient suites"),
           needs_config=False)
    common(sub.add_parser("invariance", help="check batch-size prefix invariance"))
    common(sub.add_parser("replay", help="generate against a recorded logits trace"))
    common(sub.add_parser("profile", help="measure guidance overhead"))
    report = sub.add_parser("report", help="regenerate tables and plots from raw reports")
    report.add_argument("results", help="directory of run report JSON documents")
    report.add_argument("--out", help="output directory (defaults to the results dir)")
    return parser


def _load(args) -> dict:
    doc = cfg.load_config(args.config)
    doc = cfg.apply_overrides(doc, args.set)
    return cfg.apply_env(doc)


def _inputs(args):
    """(doc, model, task-or-None, prompt, generation config) of a command."""
    doc = _load(args)
    model, task = cfg.build_model(doc, Path(args.config).parent)
    prompt = cfg.resolve_prompt(doc, task)
    return doc, model, task, prompt, cfg.generation_config(doc, model, prompt)


def _cmd_generate(args) -> int:
    doc, model, task, prompt, config = _inputs(args)
    problem = json_value("model.problem", doc["model"].get("problem", 0))
    run = run_generation(model, config, prompt=prompt)
    report = build_report(run, config, problem, task)
    for i, seq in enumerate(report.outputs):
        line = f"sample {i}: {' '.join(map(str, seq))}"
        if report.correct:
            line += f"  correct={report.correct[i]}"
        print(line)
    if report.correct:
        print(f"correct {sum(report.correct)}/{report.batch}")
    if args.out:
        cfg.echo_config(doc, args.out)
        reporting.write_reports([report], args.out)
    return 0


def _cmd_grid(args) -> int:
    doc, _, probe_task, _, base = _inputs(args)
    if probe_task is None:
        raise InvalidInputError("grid runs need a planted model (correctness oracle)")
    spec = cfg.grid_spec(doc)
    base = replace(base, length=probe_task.length)
    problems = {}
    for p in spec.problems:
        problem_doc = dict(doc, model=dict(doc["model"], problem=p))
        _, task = cfg.build_model(problem_doc, Path(args.config).parent)
        problems[p] = task, cfg.resolve_prompt(problem_doc, task)
    reports, aggregates = grid_run(
        spec, problems.__getitem__, base, jobs=max(1, args.jobs),
        log=lambda line: print(line, file=sys.stderr),
    )
    if args.out:
        cfg.echo_config(doc, args.out)
        reporting.write_reports(reports, args.out)
        paths = reporting.write_artifacts(aggregates, args.out)
        print(f"wrote {len(reports)} reports and {paths['csv']}")
    print(f"cells={len(reports)} failed={aggregates['failed_runs']}")
    return 0


def _cmd_gradcheck(args) -> int:
    instances = 120
    if args.config:
        doc = _load(args)
        instances = json_value("gradcheck_instances", doc.get("gradcheck_instances", instances))
        if instances < 1:
            raise InvalidInputError("gradcheck_instances must be >= 1")
    results = gradcheck.run_all_suites(instances=instances)
    failed = False
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(
            f"{res.name}: {res.instances} instances, worst rel err "
            f"{res.worst:.3e} (tolerance {res.tolerance:g}) {status}"
        )
        failed = failed or not res.passed
    return 1 if failed else 0


def _cmd_invariance(args) -> int:
    doc, model, _, prompt, config = _inputs(args)
    section = doc.get("invariance", {})
    if not isinstance(section, dict):
        raise InvalidInputError(f"invariance must be an object, got {section!r}")
    m, b1, b2 = (json_value(f"invariance.{key}", section.get(key, default))
                 for key, default in (("m", 8), ("b1", 8), ("b2", 16)))
    ok = invariance_check(model, config, m, b1, b2, prompt=prompt)
    print(f"guidance={config.guidance} m={m} b1={b1} b2={b2} prefix-invariant={ok}")
    return 0


def _cmd_replay(args) -> int:
    doc, model, _, prompt, config = _inputs(args)
    if not isinstance(model, ReplayDenoiser):
        raise InvalidInputError("replay needs model.kind == 'trace'")
    sequences = run_generation(model, config, prompt=prompt).sequences.tolist()
    for i, seq in enumerate(sequences):
        print(f"sample {i}: {' '.join(map(str, seq))}")
    if args.out:
        cfg.echo_config(doc, args.out)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "replay_outputs.json", "w", encoding="utf-8") as fh:
            json.dump(sequences, fh)
            fh.write("\n")
    return 0


def _cmd_profile(args) -> int:
    _, model, _, prompt, config = _inputs(args)
    stats = overhead_profile(model, config, prompt=prompt)
    print(f"baseline_seconds={stats['baseline_seconds']:.4f}")
    print(f"guided_seconds={stats['guided_seconds']:.4f}")
    print(f"overhead_fraction={stats['overhead_fraction']:.4f}")
    print(f"hook_seconds={stats['hook_seconds']:.4f}")
    return 0


def _cmd_report(args) -> int:
    out = args.out or args.results
    warnings: list[str] = []
    paths = reporting.regenerate(args.results, out, warn=warnings.append)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    print(f"wrote {paths['csv']}, {paths['passk']}, {paths['pareto']}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "grid": _cmd_grid,
    "gradcheck": _cmd_gradcheck,
    "invariance": _cmd_invariance,
    "replay": _cmd_replay,
    "profile": _cmd_profile,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivDiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
