import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from l1cube import ExperimentConfig, analytic, exact_density, run_experiment
from l1cube.output import (
    _PRINT_WIDTHS,
    OVERLAY_GRID_POINTS,
    TABLE_COLUMNS,
    format_float,
    print_table,
    write_bundle,
)


@pytest.fixture(scope="module")
def full_report():
    cfg = ExperimentConfig(
        dims=(1, 2, 50), num_pairs=1500, seed=4, bins=10,
        emit_histograms=True, emit_gof=True,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def bare_report():
    return run_experiment(ExperimentConfig(dims=(3,), num_pairs=400, seed=1))


def _report_json(report, out_dir) -> str:
    """The text of the report.json that `write_bundle` writes for `report`."""
    return write_bundle(report, out_dir, fmt="json").report_json.read_bytes().decode("utf-8")


def _table_csv(report, out_dir) -> Path:
    """The table.csv that `write_bundle` writes for `report`."""
    return write_bundle(report, out_dir, fmt="csv").table_csv


def _assert_rows_match(parsed_rows, report):
    """Each parsed row holds the report row's values: `==`, floats included."""
    assert len(parsed_rows) == len(report.rows)
    for parsed, row in zip(parsed_rows, report.rows):
        for col in TABLE_COLUMNS:
            assert parsed[col] == getattr(row, col), col


def _assert_json_matches(data, report):
    """A parsed report.json holds its config, every table value and histogram exactly."""
    assert ExperimentConfig(**data["config"]) == report.config
    _assert_rows_match(data["rows"], report)
    for parsed, row in zip(data["rows"], report.rows):
        if row.histogram is None:
            assert parsed["histogram"] is None
        else:
            assert parsed["histogram"]["bin_edges"] == row.histogram.bin_edges.tolist()
            assert parsed["histogram"]["counts"] == row.histogram.counts.tolist()
            assert parsed["histogram"]["density_mode"] == row.histogram.density_mode


class TestFloatFormat:
    @pytest.mark.parametrize(
        "x", [0.1, 1 / 3, math.pi, 1e-300, 123456.789, 5.0, 0.0]
    )
    def test_round_trips_exactly(self, x):
        assert float(format_float(x)) == x

    def test_random_floats_round_trip(self):
        rng = np.random.default_rng(30)
        for x in rng.random(500) * rng.choice([1e-9, 1.0, 1e9], size=500):
            assert float(format_float(float(x))) == x

    def test_locale_independent_form(self):
        assert "," not in format_float(1234567.25)


class TestJsonReport:
    def test_dict_round_trip(self, full_report, tmp_path):
        _assert_json_matches(json.loads(_report_json(full_report, tmp_path)), full_report)

    def test_dict_round_trip_without_optionals(self, bare_report, tmp_path):
        _assert_json_matches(json.loads(_report_json(bare_report, tmp_path)), bare_report)

    def test_dump_is_byte_stable(self, full_report, tmp_path):
        first = _report_json(full_report, tmp_path / "a")
        assert first == _report_json(full_report, tmp_path / "b")

    def test_dump_ends_with_newline_and_parses(self, full_report, tmp_path):
        text = _report_json(full_report, tmp_path)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["variance_convention"] == "population"
        assert data["config"]["dims"] == [1, 2, 50]
        assert len(data["rows"]) == 3

    def test_file_round_trip(self, full_report, tmp_path):
        # The file is UTF-8 JSON in its one canonical spelling: two-space
        # indent, keys in field order, one closing newline.
        path = write_bundle(full_report, tmp_path, fmt="json").report_json
        assert path == tmp_path / "report.json"
        raw = path.read_bytes()
        assert raw == (json.dumps(json.loads(raw), indent=2) + "\n").encode("utf-8")

    def test_null_fields_for_unavailable_backend(self, full_report, tmp_path):
        data = json.loads(_report_json(full_report, tmp_path))
        row50 = data["rows"][2]
        assert row50["dim"] == 50
        assert row50["ks_exact"] is None
        assert row50["gof_backend"] == "normal_only"


class TestCsvTable:
    def test_columns_and_row_count(self, full_report, tmp_path):
        path = _table_csv(full_report, tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TABLE_COLUMNS
        assert len(rows) == 1 + 3

    def test_parsed_types_and_values(self, full_report, bare_report, tmp_path):
        # Empty cells are None; dim is an int, gof_backend text, the rest
        # floats written with 17 significant digits, so `==` holds exactly.
        kinds = {"dim": int, "gof_backend": str}
        for report in (full_report, bare_report):
            path = _table_csv(report, tmp_path)
            with open(path, encoding="utf-8", newline="") as fh:
                rows = [
                    {col: kinds.get(col, float)(rec[col]) if rec[col] else None
                     for col in TABLE_COLUMNS}
                    for rec in csv.DictReader(fh)
                ]
            _assert_rows_match(rows, report)

    def test_unix_newlines(self, full_report, tmp_path):
        path = _table_csv(full_report, tmp_path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestPrintTable:
    def test_printed_columns_follow_the_schema(self):
        # Every printed column is a schema column, in the schema's order.
        assert list(_PRINT_WIDTHS) == [c for c in TABLE_COLUMNS if c in _PRINT_WIDTHS]
        assert "ks_crit_001" not in _PRINT_WIDTHS and "gof_backend" not in _PRINT_WIDTHS

    def test_cli_imports_the_same_function(self):
        from l1cube.cli import print_table as cli_print_table

        assert cli_print_table is print_table


class TestFigureData:
    def test_files_and_schemas(self, full_report, tmp_path):
        paths = write_bundle(full_report, tmp_path, figures=True).figure_files
        names = sorted(p.name for p in paths)
        assert names == [
            "hist_n1.csv", "hist_n2.csv", "hist_n50.csv",
            "overlay_n1.csv", "overlay_n2.csv", "overlay_n50.csv",
        ]
        with open(tmp_path / "hist_n1.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["bin_left", "bin_right", "density"]
        with open(tmp_path / "overlay_n2.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x", "exact_pdf", "normal_pdf"]

    def test_exact_column_absent_above_ceiling(self, full_report, tmp_path):
        write_bundle(full_report, tmp_path, figures=True)
        with open(tmp_path / "overlay_n50.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x", "normal_pdf"]

    def test_normal_overlay_peaks_at_the_mean(self, full_report, tmp_path):
        write_bundle(full_report, tmp_path, figures=True)
        with open(tmp_path / "overlay_n50.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        pdf = np.array([float(r["normal_pdf"]) for r in rows])
        step = x[1] - x[0]
        assert abs(x[np.argmax(pdf)] - 50 / 3) <= step

    def test_histogram_density_integrates_to_one(self, full_report, tmp_path):
        write_bundle(full_report, tmp_path, figures=True)
        with open(tmp_path / "hist_n2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        mass = sum(
            (float(r["bin_right"]) - float(r["bin_left"])) * float(r["density"])
            for r in rows
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_overlay_matches_exact_density(self, full_report, tmp_path):
        write_bundle(full_report, tmp_path, figures=True)
        with open(tmp_path / "overlay_n2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == OVERLAY_GRID_POINTS
        dens = exact_density(2)
        for r in rows[:: len(rows) // 16]:
            assert float(r["exact_pdf"]) == dens.pdf(float(r["x"]))

    def test_requires_histograms(self, bare_report, tmp_path):
        with pytest.raises(ValueError, match="histograms"):
            write_bundle(bare_report, tmp_path, figures=True)

    def test_one_ceiling_decides_ks_and_overlay_columns(self, tmp_path, monkeypatch):
        # analytic's ceiling alone chooses the laws of the KS columns and of
        # the overlay columns; lowered to 3, dim 4 has the normal law alone.
        monkeypatch.setattr(analytic, "EXACT_DENSITY_MAX_DIM", 3)
        cfg = ExperimentConfig(dims=(2, 3, 4), num_pairs=1000, seed=3,
                               emit_histograms=True, emit_gof=True)
        report = run_experiment(cfg)
        assert [r.gof_backend for r in report.rows] == ["exact", "exact", "normal_only"]
        assert [r.ks_exact is None for r in report.rows] == [False, False, True]
        write_bundle(report, tmp_path, figures=True)
        headers = [(tmp_path / f"overlay_n{d}.csv").read_text().split("\n")[0] for d in (2, 3, 4)]
        assert headers == ["x,exact_pdf,normal_pdf"] * 2 + ["x,normal_pdf"]


class TestWriteBundle:
    def test_both_formats(self, full_report, tmp_path):
        bundle = write_bundle(full_report, tmp_path, fmt="both", figures=True)
        assert bundle.report_json.exists()
        assert bundle.table_csv.exists()
        assert len(bundle.figure_files) == 6

    def test_csv_only(self, full_report, tmp_path):
        bundle = write_bundle(full_report, tmp_path, fmt="csv")
        assert bundle.report_json is None
        assert bundle.table_csv.name == "table.csv"
        assert bundle.figure_files == ()

    def test_json_only(self, full_report, tmp_path):
        bundle = write_bundle(full_report, tmp_path, fmt="json")
        assert bundle.table_csv is None
        assert bundle.report_json.name == "report.json"

    def test_unknown_format_rejected(self, full_report, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_bundle(full_report, tmp_path, fmt="xml")

    def test_creates_missing_directories(self, full_report, tmp_path):
        target = tmp_path / "deep" / "nested"
        bundle = write_bundle(full_report, target, fmt="json")
        assert bundle.report_json.parent == target

    def test_every_file_written_with_one_line_end_rule(self, full_report, tmp_path, monkeypatch):
        # report.json used to be written with the platform's line ends.
        calls = {}
        write_text = Path.write_text

        def recording_write_text(path, text, *args, **kwargs):
            calls[path.name] = (args, kwargs)
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", recording_write_text)
        write_bundle(full_report, tmp_path, fmt="both", figures=True)
        assert set(calls) == {p.name for p in tmp_path.iterdir()}
        assert len(calls) == 8
        for args, kwargs in calls.values():
            assert args == () and kwargs == {"encoding": "utf-8", "newline": ""}

    @pytest.mark.parametrize("figures", ["no", None, 1], ids=["str", "None", "int"])
    def test_rejects_non_bool_figures(self, full_report, tmp_path, figures):
        # "no" used to write the figure files.
        with pytest.raises(ValueError, match=f"figures must be a bool, got {figures!r}$"):
            write_bundle(full_report, tmp_path / "out", figures=figures)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kwargs",
        [{"fmt": "xml"}, {"figures": "no"}, {"figures": True}],
        ids=["unknown-format", "non-bool-figures", "figures-without-histograms"],
    )
    def test_refused_call_writes_nothing(self, bare_report, tmp_path, kwargs):
        # A report without histograms and figures=True used to write
        # report.json and table.csv before it was refused.
        target = tmp_path / "out"
        with pytest.raises(ValueError):
            write_bundle(bare_report, target, **kwargs)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_figures_follow_the_rows_histogram_then_overlay(self, full_report, tmp_path):
        bundle = write_bundle(full_report, tmp_path, fmt="csv", figures=True)
        names = [p.name for p in bundle.figure_files]
        assert names == [f"{kind}_n{row.dim}.csv" for row in full_report.rows
                         for kind in ("hist", "overlay")]

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = ExperimentConfig(
            dims=(1, 4), num_pairs=600, seed=12, emit_histograms=True, emit_gof=True
        )
        a = write_bundle(run_experiment(cfg), tmp_path / "a", figures=True)
        b = write_bundle(run_experiment(cfg), tmp_path / "b", figures=True)
        assert a.report_json.read_bytes() == b.report_json.read_bytes()
        assert a.table_csv.read_bytes() == b.table_csv.read_bytes()
        for pa, pb in zip(a.figure_files, b.figure_files):
            assert pa.read_bytes() == pb.read_bytes()
