"""Serialization of experiment reports: JSON, CSV tables, plot-ready grids.

All numeric fields are written with 17 significant digits so every float
round-trips exactly; formatting is locale-independent and newline use is
fixed, so identical reports serialize to identical bytes on any platform.

A report itself is identical for an identical config because its samples
come from Philox substreams, which are the same on every platform, and
because every sum over them runs in one stated order (`metric.span_sum`):
numpy's pairwise kernel within fixed 8192-element spans, the spans added
left to right. Bytes hold across numpy versions for as long as that kernel
is unchanged; `tests/pairwise_reference.py` models it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .analytic import (
    EXACT_DENSITY_MAX_DIM,
    NormalApprox,
    exact_density,
    normal_pdf,
)
from .estimation import Histogram
from .experiment import DimensionReport, ExperimentConfig, ExperimentReport

__all__ = [
    "OutputBundle", "write_bundle", "dump_report_json", "write_report_json",
    "load_report_json", "write_table_csv", "write_table_rows", "read_table_csv",
    "emit_figure_data",
]

OVERLAY_GRID_POINTS = 512

# One row schema: the CSV and stdout columns are DimensionReport's fields in
# declaration order, less the histogram, which only the JSON report carries.
TABLE_COLUMNS = tuple(f.name for f in fields(DimensionReport) if f.name != "histogram")
# Each column's cell type: T for a field annotated `T` or `T | None`.
_COLUMN_TYPES = {
    col: next((t for t in get_args(hint) if t is not type(None)), hint)
    for col, hint in get_type_hints(DimensionReport).items()
    if col in TABLE_COLUMNS
}
FORMATS = ("csv", "json", "both")


def format_float(x: float) -> str:
    """Round-trippable decimal form: 17 significant digits, no grouping."""
    return f"{float(x):.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    return str(value)


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------

def _plain(value):
    """Dataclasses, arrays and tuples as JSON-ready dicts and lists, in field order."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def report_from_dict(data: dict) -> ExperimentReport:
    rows = []
    for r in data["rows"]:
        hist = r.get("histogram")
        rows.append(
            DimensionReport(**{**r, "histogram": None if hist is None else Histogram(**hist)})
        )
    return ExperimentReport(
        **{**data, "config": ExperimentConfig(**data["config"]), "rows": tuple(rows)}
    )


def dump_report_json(report: ExperimentReport) -> str:
    """Serialize with stable key order; includes the full config for provenance."""
    return json.dumps(_plain(report), indent=2) + "\n"


def write_report_json(report: ExperimentReport, path) -> Path:
    path = Path(path)
    path.write_text(dump_report_json(report), encoding="utf-8")
    return path


def load_report_json(path) -> ExperimentReport:
    return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# CSV table
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_table_csv(report: ExperimentReport, path) -> Path:
    """One CSV row per dimension, in sweep order."""
    return write_table_rows([vars(row) for row in report.rows], path)


def read_table_csv(path) -> list[dict]:
    """Parse a table CSV back into typed per-dimension dicts; empty cells are None."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {col: kind(rec[col]) if rec[col] else None for col, kind in _COLUMN_TYPES.items()}
            for rec in csv.DictReader(fh)
        ]


def write_table_rows(rows: list[dict], path) -> Path:
    """Inverse of read_table_csv; rewriting parsed rows reproduces the bytes."""
    return _write_csv(
        Path(path), TABLE_COLUMNS, [[_cell(r[col]) for col in TABLE_COLUMNS] for r in rows]
    )


# ---------------------------------------------------------------------------
# Figure data (histogram + density overlays)
# ---------------------------------------------------------------------------

def emit_figure_data(report: ExperimentReport, out_dir) -> list[Path]:
    """Write per-dimension histogram and density-overlay CSV grids.

    `hist_n{dim}.csv` holds bin_left, bin_right, density. `overlay_n{dim}.csv`
    samples the reference densities on a 512-point grid over the histogram
    range: the exact density where the exact backend applies, and the normal
    approximation always. The exact column is simply absent above the
    backend ceiling.
    """
    if any(row.histogram is None for row in report.rows):
        raise ValueError(
            "report has no histograms; rerun with emit_histograms (CLI: --histograms)"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for row in report.rows:
        hist = row.histogram
        hist_path = out_dir / f"hist_n{row.dim}.csv"
        _write_csv(
            hist_path,
            ("bin_left", "bin_right", "density"),
            [
                [format_float(l), format_float(r), format_float(h)]
                for l, r, h in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.heights)
            ],
        )
        paths.append(hist_path)

        xs = np.linspace(hist.bin_edges[0], hist.bin_edges[-1], OVERLAY_GRID_POINTS)
        overlay = {"x": xs}
        if row.dim <= EXACT_DENSITY_MAX_DIM:
            overlay["exact_pdf"] = exact_density(row.dim).pdf(xs)
        overlay["normal_pdf"] = normal_pdf(NormalApprox.for_dim(row.dim), xs)
        overlay_path = out_dir / f"overlay_n{row.dim}.csv"
        _write_csv(
            overlay_path,
            overlay,
            [[format_float(v) for v in values] for values in zip(*overlay.values())],
        )
        paths.append(overlay_path)
    return paths


@dataclass(frozen=True)
class OutputBundle:
    """Paths written by one CLI run."""

    report_json: Path | None
    table_csv: Path | None
    figure_files: tuple[Path, ...] = ()


def write_bundle(
    report: ExperimentReport,
    out_dir,
    fmt: str = "both",
    figures: bool = False,
) -> OutputBundle:
    """Write the report files selected by `fmt` (csv, json or both)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; use csv, json or both")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = None
    table_path = None
    if fmt in ("json", "both"):
        report_path = write_report_json(report, out_dir / "report.json")
    if fmt in ("csv", "both"):
        table_path = write_table_csv(report, out_dir / "table.csv")
    figure_files = tuple(emit_figure_data(report, out_dir)) if figures else ()
    return OutputBundle(report_path, table_path, figure_files)
