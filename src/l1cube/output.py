"""Serialization of experiment reports: JSON, CSV tables, plot-ready grids.

Every CSV cell is a float in `%.17g` form or a plain token (an int, a backend
name, or empty), written as whole lines through one row template; no cell is
ever quoted. JSON floats take their shortest exact form. So every float
round-trips exactly, and identical reports serialize to identical bytes on any
platform; golden tests pin the table, the JSON report and the figure files.
`table.csv` and the printed table share one renderer; the printed table's
columns and widths are named in `_PRINT_WIDTHS`, next to `TABLE_COLUMNS`.

A report itself is identical for an identical config because its samples
come from Philox substreams, which are the same on every platform, and
because every sum over them runs in one stated order (`metric.span_sum`):
numpy's pairwise kernel within fixed 8192-element spans, the spans added
left to right. Bytes hold across numpy versions for as long as that kernel
is unchanged; `tests/pairwise_reference.py` models it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .analytic import (
    EXACT_DENSITY_MAX_DIM,
    NormalApprox,
    exact_density,
    normal_pdf,
)
from .experiment import DimensionReport, ExperimentReport

__all__ = [
    "OutputBundle", "write_bundle", "dump_report_json", "write_report_json",
    "write_table_csv", "emit_figure_data",
]

OVERLAY_GRID_POINTS = 512

# One row schema: the CSV and stdout columns are DimensionReport's fields in
# declaration order, less the histogram, which only the JSON report carries.
TABLE_COLUMNS = tuple(f.name for f in fields(DimensionReport) if f.name != "histogram")
# The stdout table's columns and widths, by name. The ks_* columns are shown
# only when GOF ran; ks_crit_001 and gof_backend are in the files only.
_PRINT_WIDTHS = {"dim": 4, "empirical_mean": 14, "theoretical_mean": 16, "empirical_variance": 18,
                 "theoretical_variance": 20, "mean_dev_se": 11, "var_dev_rel": 11,
                 "ks_exact": 9, "ks_normal": 9, "ks_crit_005": 11}
FORMATS = ("csv", "json", "both")
# The one float spelling of every CSV cell: 17 significant digits, no grouping.
_FLOAT = "%.17g"


def format_float(x: float) -> str:
    """Round-trippable decimal form of `x`."""
    return _FLOAT % x


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _write_csv(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="")
    return path


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


def dump_report_json(report: ExperimentReport) -> str:
    """Serialize with stable key order; includes the full config for provenance."""
    return json.dumps(_plain(report), indent=2) + "\n"


def write_report_json(report: ExperimentReport, path) -> Path:
    path = Path(path)
    path.write_text(dump_report_json(report), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Per-dimension table: table.csv and stdout
# ---------------------------------------------------------------------------

def _print_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}"


def _render_table(report: ExperimentReport, widths: dict[str, int], cell, sep: str) -> str:
    """The header, then one line per row; each cell right-aligned to its column's width."""
    lines = [sep.join(name.rjust(w) for name, w in widths.items())]
    lines += (sep.join(cell(getattr(r, name)).rjust(w) for name, w in widths.items())
              for r in report.rows)
    return "\n".join(lines) + "\n"


def write_table_csv(report: ExperimentReport, path) -> Path:
    """One CSV row per dimension, in sweep order."""
    table = _render_table(report, dict.fromkeys(TABLE_COLUMNS, 0), _cell, ",")
    return _write_csv(Path(path), table)


def print_table(report: ExperimentReport, stream) -> None:
    """The stdout table: 4-decimal cells, `-` where a row has no value."""
    gof = report.config.emit_gof
    widths = {name: w for name, w in _PRINT_WIDTHS.items() if gof or not name.startswith("ks_")}
    stream.write(_render_table(report, widths, _print_cell, "  "))


# ---------------------------------------------------------------------------
# Figure data (histogram + density overlays)
# ---------------------------------------------------------------------------

def _float_csv(header, *columns) -> str:
    """The header, then one line per row of the equal-length float arrays `columns`."""
    template = ",".join([_FLOAT] * len(columns)) + "\n"
    rows = map(template.__mod__, zip(*(c.tolist() for c in columns)))
    return ",".join(header) + "\n" + "".join(rows)


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
        columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.heights)
        _write_csv(hist_path, _float_csv(("bin_left", "bin_right", "density"), *columns))
        paths.append(hist_path)

        xs = np.linspace(hist.bin_edges[0], hist.bin_edges[-1], OVERLAY_GRID_POINTS)
        overlay = {"x": xs}
        if row.dim <= EXACT_DENSITY_MAX_DIM:
            overlay["exact_pdf"] = exact_density(row.dim).pdf(xs)
        overlay["normal_pdf"] = normal_pdf(NormalApprox.for_dim(row.dim), xs)
        overlay_path = out_dir / f"overlay_n{row.dim}.csv"
        _write_csv(overlay_path, _float_csv(overlay, *overlay.values()))
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
