import hashlib
import json
import os
import subprocess
import sys

import pytest

import l1cube
from l1cube import ExperimentConfig
from l1cube.cli import _check_memory, build_parser, load_config_file, main, resolve_settings


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentHandling:
    def test_defaults(self):
        settings = resolve_settings(build_parser().parse_args([]))
        assert settings["dims"] == (1, 2, 3, 5, 10, 20, 50, 100)
        assert settings["pairs"] == 10000
        assert settings["seed"] == 0
        assert settings["bins"] == 30
        assert settings["out"] == "."
        assert settings["format"] == "both"
        assert settings["gof"] is False
        assert settings["histograms"] is False

    def test_dims_parsing(self):
        settings = resolve_settings(build_parser().parse_args(["--dims", "1,5,100"]))
        assert settings["dims"] == (1, 5, 100)

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["--frobnicate"], capsys)
        assert code == 2
        assert "usage" in err

    def test_non_integer_pairs_is_usage_error(self, capsys):
        code, _, _ = run_cli(["--pairs", "many"], capsys)
        assert code == 2

    def test_bad_dims_text_is_usage_error(self, capsys):
        code, _, _ = run_cli(["--dims", "1,two"], capsys)
        assert code == 2

    def test_bad_format_is_usage_error(self, capsys):
        code, _, _ = run_cli(["--format", "xml"], capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "--dims" in out
        assert "--format {csv,json,both}" in out

    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert l1cube.__version__ in out


class TestUsageErrorExitCodes:
    def test_invalid_dimension_value(self, tmp_path, capsys):
        code, _, err = run_cli(["--dims", "0", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("l1cube: error: --dims:")
        assert "0" in err  # diagnostic names the offending dimension

    def test_non_positive_dimension_named_by_index(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, outs, err = run_cli(["--dims", "0,2", "--out", str(out)], capsys)
        assert code == 2
        assert err == "l1cube: error: --dims: dims[0] must be >= 1, got 0\n"
        assert outs == ""
        assert not out.exists()

    def test_huge_dimension_rejected_before_output(self, tmp_path, capsys):
        # Used to exit 1 with numpy's "Python int too large to convert to C
        # long", after creating the out dir.
        out = tmp_path / "never"
        code, outs, err = run_cli(
            ["--dims", "100000000000000000000", "--pairs", "2", "--out", str(out)], capsys
        )
        assert code == 2
        assert err == ("l1cube: error: --dims: dims[0] must be <= 36028797018963968, "
                       "got 100000000000000000000\n")
        assert outs == ""
        assert not out.exists()

    def test_invalid_pairs_value(self, tmp_path, capsys):
        code, _, err = run_cli(["--pairs", "-5", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("l1cube: error: --pairs:")
        assert "-5" in err

    def test_invalid_seed_value_is_named(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, _, err = run_cli(["--seed", "-1", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("l1cube: error:")
        assert "-1" in err
        assert not out.exists()

    def test_duplicate_dims_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, outs, err = run_cli(
            ["--dims", "5,5", "--pairs", "10", "--histograms", "--out", str(out)], capsys
        )
        assert code == 2
        assert err.startswith("l1cube: error: --dims:")
        assert "5 more than once" in err
        assert outs == ""
        assert not out.exists()

    def test_empty_dims_token_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, outs, err = run_cli(["--dims", "1,,2,", "--pairs", "10", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("l1cube: error: --dims:")
        assert "'1,,2,'" in err
        assert outs == ""
        assert not out.exists()

    def test_unknown_format_is_one_named_line(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, outs, err = run_cli(["--format", "xml", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("l1cube: error: --format:")
        assert err.count("\n") == 1
        assert "usage:" not in err
        assert outs == ""
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--config", str(tmp_path / "absent.conf"), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "error" in err

    def test_unusable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory\n")
        code, _, err = run_cli(
            ["--dims", "1", "--pairs", "10", "--out", str(blocker / "sub")], capsys
        )
        assert code == 2
        assert err.startswith("l1cube: error:")
        assert err.count("\n") == 1  # single-line diagnostic

    def test_internal_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def explode(config):
            raise RuntimeError("simulated failure inside the sweep")

        monkeypatch.setattr("l1cube.cli.run_experiment", explode)
        code, _, err = run_cli(
            ["--dims", "1", "--pairs", "10", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "simulated failure" in err


@pytest.fixture
def physical_memory(monkeypatch):
    """Make os.sysconf report a given number of bytes of physical memory."""
    real = os.sysconf

    def set_bytes(total):
        names = {"SC_PHYS_PAGES": total, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", lambda name: names[name] if name in names else real(name))

    return set_bytes


class TestMemoryCheck:
    """The CLI refuses, before sampling, a pair count whose row cannot fit."""

    def test_pairs_beyond_physical_memory_refused(self, tmp_path, capsys, physical_memory):
        physical_memory(2**30)
        out = tmp_path / "never"
        code, outs, err = run_cli(["--pairs", "200000000", "--out", str(out)], capsys)
        assert code == 2
        assert err == ("l1cube: error: --pairs 200000000: a row needs 1.5 GiB, more than "
                       "the 1.0 GiB of physical memory\n")
        assert outs == ""
        assert not out.exists()

    def test_bound_is_the_rows_footprint(self, tmp_path, capsys, physical_memory, monkeypatch):
        # 2048 pairs of 8 bytes (16,384), 384 KiB for each of two sampling
        # workers (786,432), 1 MiB for a KS batch (1,048,576) and 384 bytes
        # over the KS block starts (48 bytes a start of 256 pairs, 8 starts):
        # 1,851,776 bytes run, one byte fewer is refused.
        monkeypatch.setattr("l1cube.cli._usable_cpus", lambda: 2)
        argv = ["--dims", "1", "--pairs", "2048", "--gof", "--out", str(tmp_path)]
        physical_memory(1_851_775)
        assert run_cli(argv, capsys)[0] == 2
        physical_memory(1_851_776)
        assert run_cli(argv, capsys)[0] == 0

    def test_bound_counts_the_ks_block_starts(self, tmp_path, capsys, physical_memory,
                                              monkeypatch):
        # 10^8 pairs hold 390,625 KS block starts, 18,750,000 bytes at 48 a
        # start, past one KS batch. The bound without them, 801,835,008
        # bytes (8 * 10^8 for the sample, 786,432 for two workers, 1,048,576
        # for a KS batch), is refused before sampling; with them,
        # 820,585,008 bytes fit.
        monkeypatch.setattr("l1cube.cli._usable_cpus", lambda: 2)
        sampled = []
        monkeypatch.setattr("l1cube.cli.run_experiment", sampled.append)
        physical_memory(801_835_008)
        argv = ["--dims", "1", "--pairs", "100000000", "--gof", "--out", str(tmp_path / "never")]
        assert run_cli(argv, capsys)[0] == 2
        assert sampled == []
        physical_memory(820_585_007)
        with pytest.raises(ValueError, match="a row needs 0.8 GiB"):
            _check_memory(ExperimentConfig(dims=(1,), num_pairs=10**8, emit_gof=True))
        physical_memory(820_585_008)
        _check_memory(ExperimentConfig(dims=(1,), num_pairs=10**8, emit_gof=True))

    def test_bins_beyond_physical_memory_refused(self, tmp_path, capsys, physical_memory,
                                                 monkeypatch):
        # 10^9 bins used to be sampled first, then fail with numpy's "Unable
        # to allocate 7.45 GiB" (exit 1).
        physical_memory(8 * 2**30)
        sampled = []
        monkeypatch.setattr("l1cube.cli.run_experiment", sampled.append)
        out = tmp_path / "never"
        argv = ["--dims", "1", "--pairs", "100", "--histograms", "--bins", "1000000000",
                "--out", str(out)]
        code, outs, err = run_cli(argv, capsys)
        assert code == 2
        assert err == ("l1cube: error: --pairs 100 --bins 1000000000: the sweep needs 298.0 GiB, "
                       "more than the 8.0 GiB of physical memory\n")
        assert (outs, sampled) == ("", [])
        assert not out.exists()

    def test_bound_counts_every_rows_bins(self, tmp_path, capsys, physical_memory, monkeypatch):
        # The row's 1,851,776 bytes as above, then two rows of 100 edges and
        # 99 counts at 320 bytes a bin (64,000): 1,915,776 bytes run, one
        # fewer is refused.
        monkeypatch.setattr("l1cube.cli._usable_cpus", lambda: 2)
        argv = ["--dims", "1,2", "--pairs", "2048", "--gof", "--histograms", "--bins", "99",
                "--out", str(tmp_path)]
        physical_memory(1_915_775)
        assert run_cli(argv, capsys)[0] == 2
        physical_memory(1_915_776)
        assert run_cli(argv, capsys)[0] == 0
        # Without histograms the bins cost nothing.
        physical_memory(1_851_776)
        assert run_cli([a for a in argv if a != "--histograms"], capsys)[0] == 0

    @pytest.mark.parametrize("lookup", ["missing-name", "no-sysconf"])
    def test_unknown_memory_is_not_checked(self, lookup, tmp_path, capsys, monkeypatch):
        if lookup == "missing-name":
            real = os.sysconf  # raises ValueError for a name the OS lacks
            monkeypatch.setattr(os, "sysconf", lambda name: real(name + "_UNKNOWN"))
        else:
            monkeypatch.delattr(os, "sysconf")
        code, _, _ = run_cli(["--dims", "1", "--pairs", "10", "--out", str(tmp_path)], capsys)
        assert code == 0


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# full sweep\n"
            "\n"
            "dims = 1, 2, 10   # trailing comment\n"
            "pairs = 2500\n"
            "seed = 7\n"
            "bins = 12\n"
            "gof = true\n"
            "histograms = off\n"
            "format = json\n"
            f"out = {tmp_path}\n"
        )
        values = load_config_file(cfg)
        assert values["dims"] == (1, 2, 10)
        assert values["pairs"] == 2500
        assert values["gof"] is True
        assert values["histograms"] is False
        assert values["format"] == "json"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("pears = 12\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(cfg)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("gof = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_config_file(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("dims 1,2\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config_file(cfg)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # A leading UTF-8 byte-order mark, which some editors save, is not part of
        # the first key.
        cfg = tmp_path / "bom.conf"
        cfg.write_bytes(b"\xef\xbb\xbfpairs = 300\ndims = 1, 2\n")
        assert load_config_file(cfg) == {"pairs": 300, "dims": (1, 2)}

    @pytest.mark.parametrize(
        "data, lineno, offset",
        [(b"\xff", 1, 0), (b"dims = 1\n# caf\xe9\n", 2, 14),
         (b"\xef\xbb\xbfdims = 1\n\xff\n", 2, 12)],
    )
    def test_non_utf8_file_names_file_and_line(self, tmp_path, capsys, data, lineno, offset):
        cfg = tmp_path / "bad.conf"
        cfg.write_bytes(data)
        out = tmp_path / "never"
        code, outs, err = run_cli(["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"l1cube: error: {cfg}:{lineno}: not UTF-8 text at byte {offset} (")
        assert err.count("\n") == 1
        assert outs == ""
        assert not out.exists()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("dims = 1\npairs = 300\nseed = 2\n")
        code, out, _ = run_cli(
            ["--config", str(cfg), "--pairs", "450", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        assert "450 pairs" in out
        assert "seed 2" in out

    @pytest.mark.parametrize(
        "line",
        [
            "format = xml", "pairs = many", "dims = 1,two", "seed = 1.5", "dims = 1,,2",
            # parse, but out of range for ExperimentConfig
            "pairs = 1", "bins = 0", "dims = 3,3", "seed = -1",
            # repeats line 2's key
            "gof = false",
        ],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(f"# sweep\ngof = true\n{line}\n")
        out = tmp_path / "never"
        code, outs, err = run_cli(["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"l1cube: error: {cfg}:3: {line.split()[0]}:")
        assert err.count("\n") == 1
        assert outs == ""
        assert not out.exists()

    def test_config_error_surfaces_as_usage_failure(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("bins = zero\n")
        code, _, err = run_cli(["--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "l1cube: error:" in err


class TestEndToEnd:
    def test_default_run_writes_both_formats(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["--dims", "1,3", "--pairs", "400", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert err == ""
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "table.csv").exists()
        # the stdout table carries the closed-form columns
        assert "theoretical_mean" in out
        assert "0.3333" in out
        assert "1.0000" in out
        assert out.strip().endswith(f"wrote {tmp_path}/report.json, {tmp_path}/table.csv")

    def test_full_sweep_golden_table(self, tmp_path, capsys):
        # One frozen end-to-end run: the seed-42 default sweep must keep
        # producing this exact table, byte for byte, on any machine. The
        # bytes depend on the Philox streams, on numpy's pairwise kernel and
        # on the fixed 8192-element summation spans (`metric.span_sum`); the
        # order tests in test_estimation and test_sampling pin the last two.
        code, out, _ = run_cli(
            [
                "--dims", "1,2,3,5,10,20,50,100", "--pairs", "10000",
                "--seed", "42", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        table_lines = [ln for ln in out.splitlines() if ln.lstrip()[:1].isdigit()]
        assert len(table_lines) == 8
        digest = hashlib.sha256((tmp_path / "table.csv").read_bytes()).hexdigest()
        assert digest == (
            "6e5b8d41a3741ed9cb2b2d408273b691e7b5b4745b91253e73e122b9dd259265"
        )
        # The stdout table without the GOF columns; the output directory is
        # masked as in the GOF golden below.
        stdout = out.replace(str(tmp_path), "OUT").encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "d6087d4b84ee50c6c2f0f7ed54c37b231acd6cc7c92f5a55e346ee3b6edf42e8"
        )

    def test_gof_histograms_golden_json_and_stdout(self, tmp_path, capsys):
        # Pins the bytes of report.json, of the stdout table and of the
        # figure files for a run with every optional column, including one
        # normal-only row and the histograms. The digests were computed
        # before report rows were derived from the dataclass fields, so a
        # reordered or renamed field shows up here. The output directory is
        # masked in stdout.
        code, out, _ = run_cli(
            [
                "--dims", "1,2,50", "--pairs", "2000", "--seed", "7",
                "--gof", "--histograms", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        report = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "4a0bed358070b28228b84492fa828a4995044fcf4de6bddfac141a63f622bef3"
        )
        stdout = out.replace(str(tmp_path), "OUT").encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "0a4088207cfade68d171eaf793598991d67912aecb5a41bc5781dd280a4f7b35"
        )
        # The figure files; dim 50's overlay has no exact column. A changed
        # float spelling or a quoted cell moves these digests.
        figure_digests = {
            "hist_n1.csv": "c61adbe86605f5ba39552bbbe4cef1db8ab3ecc95fb1a076db05e4f5f1ae33b1",
            "hist_n2.csv": "1db678bbcb719fac9cd74bea48f902ae85573167beb614efff5a3d5565a595e8",
            "hist_n50.csv": "8877b9a303c0d2dfb1ef8c45ee4c2a43db03b2642b51fa20c68a429561e0c358",
            "overlay_n1.csv": "7d5bd19f842038f6f17d641f95a8a87e04ec050b9f0a537420d01cca3aa7d3a9",
            "overlay_n2.csv": "2fe1f47b990ee5c7d6a4d58e48c26e44aea2e7f559fd2029cea8e29ab762934a",
            "overlay_n50.csv": "b5c026a7cc26e2af15bbe7d2bb293dfe9fef3fecaa075931128a495c0fae69be",
        }
        for name, digest in figure_digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_csv_only_format(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["--dims", "2", "--pairs", "200", "--format", "csv", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "table.csv").exists()

    def test_gof_adds_columns(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--dims", "2", "--pairs", "300", "--gof", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert "ks_exact" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rows"][0]["gof_backend"] == "exact"

    def test_histograms_emit_figure_files(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "--dims", "1,50", "--pairs", "300", "--histograms",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        for name in ("hist_n1.csv", "overlay_n1.csv", "hist_n50.csv", "overlay_n50.csv"):
            assert (tmp_path / name).exists(), name
        assert "figure files" in out

    def test_default_out_is_current_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["--dims", "1", "--pairs", "150"], capsys)
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_seed_changes_output(self, tmp_path, capsys):
        for seed, sub in (("1", "a"), ("2", "b")):
            run_cli(
                ["--dims", "3", "--pairs", "250", "--seed", seed,
                 "--out", str(tmp_path / sub)],
                capsys,
            )
        a = (tmp_path / "a" / "table.csv").read_bytes()
        b = (tmp_path / "b" / "table.csv").read_bytes()
        assert a != b

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "l1cube.cli",
                "--dims", "1,2", "--pairs", "200", "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "dim" in proc.stdout
        assert (tmp_path / "report.json").exists()
