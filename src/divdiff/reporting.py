"""Persistence and rendering of run reports.

Raw reports are one JSON document per run; aggregate tables are CSV with
columns (guidance, theta, alpha, k, mean, se, n); plots are hand-written
SVG so that regenerating them from the same reports is byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .harness import RunReport, pass_at_k

CSV_HEADER = "guidance,theta,alpha,k,mean,se,n"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def report_filename(report: RunReport) -> str:
    return (
        f"run_p{report.problem}_{report.guidance}"
        f"_th{report.theta:g}_a{report.alpha:g}_s{report.seed}.json"
    )


def write_reports(reports, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for report in reports:
        path = out / report_filename(report)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh)
            fh.write("\n")
        paths.append(path)
    return paths


def load_reports(results_dir, warn=None) -> list[RunReport]:
    """Load every run_*.json document; malformed files are skipped."""
    root = Path(results_dir)
    if not root.is_dir():
        raise InvalidInputError(f"{results_dir} is not a directory")
    reports = []
    for path in sorted(root.glob("run_*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(RunReport.from_json(json.load(fh)))
        except (OSError, ValueError, InvalidInputError) as exc:
            if warn is not None:
                warn(f"skipping {path.name}: {exc}")
    return reports


def aggregate_reports(reports) -> dict:
    """Mean and standard error of pass@k over seeds, per configuration.

    Produces sorted rows ready for the CSV, per-cell pass@1 / pass@B
    Pareto points, and the count of failed runs (excluded throughout).
    Ungraded runs have no pass@k and are left out of the rows.
    """
    reports = list(reports)
    good = [r for r in reports if not r.failed]
    failed = len(reports) - len(good)
    cells = {}
    for report in (r for r in good if r.correct):
        key = (report.guidance, report.theta, report.alpha)
        cells.setdefault(key, {}).setdefault(report.seed, []).append(report)
    rows = []
    pareto = []
    curves = {}
    for key in sorted(cells):
        by_seed = cells[key]
        batch = min(r.batch for group in by_seed.values() for r in group)
        per_seed = {
            k: [pass_at_k(group, k) for seed, group in sorted(by_seed.items())]
            for k in range(1, batch + 1)
        }
        means = {}
        for k in range(1, batch + 1):
            vals = np.asarray(per_seed[k], dtype=np.float64)
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            rows.append({
                "guidance": key[0], "theta": key[1], "alpha": key[2],
                "k": k, "mean": mean, "se": se, "n": vals.size,
            })
            means[k] = mean
        pareto.append({
            "guidance": key[0], "theta": key[1], "alpha": key[2],
            "pass1": means[1], "passB": means[batch], "batch": batch,
        })
        curves[key] = [means[k] for k in range(1, batch + 1)]
    return {"rows": rows, "pareto": pareto, "curves": curves, "failed_runs": failed}


def format_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row['guidance']},{row['theta']!r},{row['alpha']!r},"
            f"{row['k']},{row['mean']!r},{row['se']!r},{row['n']}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(rows))


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _axes(parts, x0, y0, x1, y1, xlabel, ylabel):
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{y0 + 32}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="{x0 - 32}" y="{(y0 + y1) // 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 {x0 - 32} {(y0 + y1) // 2})">'
        f'{ylabel}</text>'
    )


def passk_curves_svg(curves: dict) -> str:
    """Pass@k versus k, one polyline per guidance (best cell per guidance)."""
    width, height = 480, 320
    x0, y0, x1, y1 = 56, 272, 440, 32
    parts = _svg_header(width, height)
    _axes(parts, x0, y0, x1, y1, "k", "pass@k")
    best = {}
    for (guidance, theta, alpha), values in sorted(curves.items()):
        key = guidance
        if key not in best or values[-1] > best[key][1][-1]:
            best[key] = ((theta, alpha), values)
    for idx, guidance in enumerate(sorted(best)):
        (theta, alpha), values = best[guidance]
        color = _PALETTE[idx % len(_PALETTE)]
        n = len(values)
        points = []
        for k, value in enumerate(values, start=1):
            px = x0 + (x1 - x0) * (k - 1) / max(1, n - 1)
            py = y0 + (y1 - y0) * value
            points.append(f"{px:.2f},{py:.2f}")
        parts.append(f'<g id="series-{guidance}">')
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{" ".join(points)}"/>'
        )
        parts.append(
            f'<text x="{x1 - 120}" y="{40 + 16 * idx}" font-size="12" '
            f'fill="{color}">{guidance} (theta={theta:g}, alpha={alpha:g})</text>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pareto_svg(points) -> str:
    """Pass@1 versus pass@B scatter, one series per guidance."""
    width, height = 480, 320
    x0, y0, x1, y1 = 56, 272, 440, 32
    parts = _svg_header(width, height)
    _axes(parts, x0, y0, x1, y1, "pass@1", "pass@B")
    guidances = sorted({p["guidance"] for p in points})
    for idx, guidance in enumerate(guidances):
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<g id="series-{guidance}">')
        for p in sorted(
            (p for p in points if p["guidance"] == guidance),
            key=lambda p: (p["theta"], p["alpha"]),
        ):
            px = x0 + (x1 - x0) * p["pass1"]
            py = y0 + (y1 - y0) * p["passB"]
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}" '
                f'fill-opacity="0.8"><title>{guidance} theta={p["theta"]:g} '
                f'alpha={p["alpha"]:g}</title></circle>'
            )
        parts.append(
            f'<text x="{x1 - 120}" y="{40 + 16 * idx}" font-size="12" '
            f'fill="{color}">{guidance}</text>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_artifacts(aggregates: dict, out_dir) -> dict:
    """Emit the CSV table and both SVG plots into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "aggregates.csv"
    write_csv(aggregates["rows"], csv_path)
    passk_path = out / "passk_curves.svg"
    with open(passk_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(passk_curves_svg(aggregates["curves"]))
    pareto_path = out / "pareto.svg"
    with open(pareto_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(pareto_svg(aggregates["pareto"]))
    return {"csv": csv_path, "passk": passk_path, "pareto": pareto_path}


def regenerate(results_dir, out_dir, warn=None) -> dict:
    """Rebuild aggregate tables and plots from persisted raw reports."""
    reports = load_reports(results_dir, warn=warn)
    if not reports:
        raise InvalidInputError(f"no readable run reports in {results_dir}")
    aggregates = aggregate_reports(reports)
    return write_artifacts(aggregates, out_dir)
