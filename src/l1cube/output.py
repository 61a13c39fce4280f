"""Serialization of experiment reports: JSON, CSV tables, plot-ready grids.

Every CSV cell is a float in `%.17g` form or a plain token (an int, a backend
name, or empty), written as whole lines through one row template; no cell is
ever quoted. `report.json` is the report's `dataclasses.asdict`, its floats
in shortest exact form, and `_write` writes every file as UTF-8 with `\n`
line ends. So every float round-trips exactly, and identical reports
serialize to identical bytes on any platform, as golden tests pin.
`table.csv` and the printed table share one renderer; the printed table's
columns and widths are named in `_PRINT_WIDTHS`, next to `TABLE_COLUMNS`.
An overlay has one `<name>_pdf` column per law of `analytic._reference_laws`.

A report itself is identical for an identical config because its samples
come from Philox substreams, which are the same on every platform, and
because every sum over them, the sampler's included, is `metric.span_sum`:
numpy's pairwise kernel within fixed 8192-element spans, the spans added
left to right. Bytes hold across numpy versions for as long as that kernel
is unchanged; `tests/pairwise_reference.py` models it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analytic import _reference_laws
from .estimation import _grid
from .experiment import DimensionReport, ExperimentReport
from .sampling import _boolean

__all__ = ["OutputBundle", "write_bundle"]

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


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="")
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


def _figure_files(rows: tuple[DimensionReport, ...]):
    """(name, text) of each figure file: per row, its histogram, then its overlay."""
    for row in rows:
        edges = row.histogram.bin_edges
        columns = (edges[:-1], edges[1:], row.histogram.heights)
        yield f"hist_n{row.dim}.csv", _float_csv(("bin_left", "bin_right", "density"), *columns)

        xs = _grid(edges[0], edges[-1], OVERLAY_GRID_POINTS)
        laws = _reference_laws(row.dim)
        overlay = {"x": xs, **{f"{name}_pdf": law.pdf(xs) for name, law in laws.items()}}
        yield f"overlay_n{row.dim}.csv", _float_csv(overlay, *overlay.values())


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
    """Write the report's files into `out_dir`, which is created if missing.

    - `report.json` (`fmt` json or both): the whole report, its config
      included for provenance, keys in field order.
    - `table.csv` (`fmt` csv or both): one row per dimension in sweep order,
      the columns `TABLE_COLUMNS`.
    - with `figures`, for each row in turn: `hist_n{dim}.csv` (bin_left,
      bin_right, density), then `overlay_n{dim}.csv`, the reference
      densities on a 512-point grid over the histogram range: x, then
      `<name>_pdf` for each law of `analytic._reference_laws(dim)`, so
      exact_pdf up to the exact density's ceiling and normal_pdf always.

    An unknown `fmt`, a `figures` that is not a bool, or `figures` for a
    report without histograms raises ValueError before anything is written.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; use csv, json or both")
    figures = _boolean("figures", figures)
    if figures and any(row.histogram is None for row in report.rows):
        raise ValueError(
            "report has no histograms; rerun with emit_histograms (CLI: --histograms)"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = table_path = None
    if fmt != "csv":
        text = json.dumps(asdict(report), indent=2, default=np.ndarray.tolist)
        report_path = _write(out_dir / "report.json", text + "\n")
    if fmt != "json":
        table = _render_table(report, dict.fromkeys(TABLE_COLUMNS, 0), _cell, ",")
        table_path = _write(out_dir / "table.csv", table)
    rows = report.rows if figures else ()
    figure_files = tuple(_write(out_dir / name, text) for name, text in _figure_files(rows))
    return OutputBundle(report_path, table_path, figure_files)
