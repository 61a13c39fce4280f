import csv
import json
import math

import numpy as np
import pytest

from l1cube import ExperimentConfig, exact_density, run_experiment
from l1cube.output import (
    OVERLAY_GRID_POINTS,
    TABLE_COLUMNS,
    dump_report_json,
    emit_figure_data,
    format_float,
    load_report_json,
    read_table_csv,
    report_from_dict,
    write_bundle,
    write_report_json,
    write_table_csv,
    write_table_rows,
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
    def test_dict_round_trip(self, full_report):
        assert report_from_dict(json.loads(dump_report_json(full_report))) == full_report

    def test_dict_round_trip_without_optionals(self, bare_report):
        assert report_from_dict(json.loads(dump_report_json(bare_report))) == bare_report

    def test_dump_is_byte_stable(self, full_report):
        assert dump_report_json(full_report) == dump_report_json(full_report)

    def test_dump_ends_with_newline_and_parses(self, full_report):
        text = dump_report_json(full_report)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["variance_convention"] == "population"
        assert data["config"]["dims"] == [1, 2, 50]
        assert len(data["rows"]) == 3

    def test_file_round_trip(self, full_report, tmp_path):
        path = write_report_json(full_report, tmp_path / "report.json")
        assert load_report_json(path) == full_report

    def test_null_fields_for_unavailable_backend(self, full_report):
        data = json.loads(dump_report_json(full_report))
        row50 = data["rows"][2]
        assert row50["dim"] == 50
        assert row50["ks_exact"] is None
        assert row50["gof_backend"] == "normal_only"


class TestCsvTable:
    def test_columns_and_row_count(self, full_report, tmp_path):
        path = write_table_csv(full_report, tmp_path / "table.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == TABLE_COLUMNS
        assert len(rows) == 1 + 3

    def test_round_trip_bytes(self, full_report, tmp_path):
        first = write_table_csv(full_report, tmp_path / "a.csv")
        parsed = read_table_csv(first)
        second = write_table_rows(parsed, tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_parsed_types_and_values(self, full_report, tmp_path):
        path = write_table_csv(full_report, tmp_path / "table.csv")
        rows = read_table_csv(path)
        assert [r["dim"] for r in rows] == [1, 2, 50]
        for parsed, row in zip(rows, full_report.rows):
            assert parsed["empirical_mean"] == row.empirical_mean  # exact, 17 digits
            assert parsed["gof_backend"] == row.gof_backend
        assert rows[2]["ks_exact"] is None

    def test_unix_newlines(self, full_report, tmp_path):
        path = write_table_csv(full_report, tmp_path / "table.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestFigureData:
    def test_files_and_schemas(self, full_report, tmp_path):
        paths = emit_figure_data(full_report, tmp_path)
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
        emit_figure_data(full_report, tmp_path)
        with open(tmp_path / "overlay_n50.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x", "normal_pdf"]

    def test_normal_overlay_peaks_at_the_mean(self, full_report, tmp_path):
        emit_figure_data(full_report, tmp_path)
        with open(tmp_path / "overlay_n50.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        x = np.array([float(r["x"]) for r in rows])
        pdf = np.array([float(r["normal_pdf"]) for r in rows])
        step = x[1] - x[0]
        assert abs(x[np.argmax(pdf)] - 50 / 3) <= step

    def test_histogram_density_integrates_to_one(self, full_report, tmp_path):
        emit_figure_data(full_report, tmp_path)
        with open(tmp_path / "hist_n2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        mass = sum(
            (float(r["bin_right"]) - float(r["bin_left"])) * float(r["density"])
            for r in rows
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_overlay_matches_exact_density(self, full_report, tmp_path):
        emit_figure_data(full_report, tmp_path)
        with open(tmp_path / "overlay_n2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == OVERLAY_GRID_POINTS
        dens = exact_density(2)
        for r in rows[:: len(rows) // 16]:
            assert float(r["exact_pdf"]) == dens.pdf(float(r["x"]))

    def test_requires_histograms(self, bare_report, tmp_path):
        with pytest.raises(ValueError, match="histograms"):
            emit_figure_data(bare_report, tmp_path)


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
