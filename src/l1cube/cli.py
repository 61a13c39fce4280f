"""Command-line entry point for the distance-concentration sweep.

Usage is `l1cube [options]`: run the sweep, print a per-dimension summary
table, and write report files. Options may also come from a config file of
`key = value` lines; explicit command-line flags win over the file. The
table's columns and widths are named in `output`, next to `TABLE_COLUMNS`;
this module names none.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from ._version import __version__
from .experiment import (
    DEFAULT_BINS,
    DEFAULT_DIMS,
    DEFAULT_NUM_PAIRS,
    DEFAULT_SEED,
    ExperimentConfig,
    run_experiment,
)
from .output import FORMATS, print_table, write_bundle

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"invalid dims {text!r}: expected comma-separated integers") from None


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"invalid boolean {text!r}")


def _parse_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"invalid choice {text!r} (choose from {', '.join(FORMATS)})")
    return text


class _Setting(NamedTuple):
    parse: Callable[[str], object]
    default: object
    field: str | None  # the ExperimentConfig field it fills, if any
    help: str


# Every setting, keyed by its flag and config-file name. The flags, the
# config file, the defaults and the ExperimentConfig all come from here;
# range rules live only in ExperimentConfig.
_SETTINGS = {
    "dims": _Setting(_parse_dims, DEFAULT_DIMS, "dims", "comma-separated dimensions "
                     f"(default {','.join(map(str, DEFAULT_DIMS))})"),
    "pairs": _Setting(int, DEFAULT_NUM_PAIRS, "num_pairs",
                      f"point pairs sampled per dimension (default {DEFAULT_NUM_PAIRS})"),
    "seed": _Setting(int, DEFAULT_SEED, "seed", f"root seed (default {DEFAULT_SEED})"),
    "bins": _Setting(int, DEFAULT_BINS, "bins", f"histogram bin count (default {DEFAULT_BINS})"),
    "out": _Setting(str, ".", None, "output directory (default current directory)"),
    "format": _Setting(_parse_format, "both", None, "report formats to write (default both)"),
    "gof": _Setting(_parse_bool, False, "emit_gof", "run goodness-of-fit tests per dimension"),
    "histograms": _Setting(_parse_bool, False, "emit_histograms",
                           "bin the samples and emit per-dimension figure data"),
}


def _parse_setting(where: str, name: str, text: str):
    """Parse setting `name` from `text` and range-check it in ExperimentConfig.

    Every malformed or out-of-range value raises ValueError prefixed with
    `where`, the flag or the config file's `path:lineno: key`.
    """
    setting = _SETTINGS[name]
    try:
        value = setting.parse(text)
        if setting.field is not None:
            ExperimentConfig(**{setting.field: value})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return value


def load_config_file(path) -> dict:
    """Parse a flat `key = value` file; `#` starts a comment, blanks ignored.

    Every malformed, out-of-range or repeated line raises ValueError prefixed
    with `path:lineno`.
    """
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: {key}: set more than once")
        values[key] = _parse_setting(f"{path}:{lineno}: {key}", key, value)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1cube",
        description=(
            "Sample Manhattan distances between uniform random points in the "
            "unit hypercube and compare them with theory across dimensions."
        ),
    )
    # Defaults are None sentinels so config-file values can fill the gaps;
    # real defaults are applied after the merge. Every value stays text until
    # resolve_settings parses it, so a bad value names its flag. Switches take
    # no value and store "true"; --format lists its choices in --help.
    for name, setting in _SETTINGS.items():
        if setting.parse is _parse_bool:
            kind = {"action": "store_const", "const": "true"}
        elif setting.parse is _parse_format:
            kind = {"metavar": "{" + ",".join(FORMATS) + "}"}
        else:
            kind = {}
        parser.add_argument(f"--{name}", default=None, help=setting.help, **kind)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge precedence: command line, then config file, then defaults.

    A flag's malformed or out-of-range value raises ValueError prefixed with
    the flag.
    """
    settings = {name: setting.default for name, setting in _SETTINGS.items()}
    if args.config is not None:
        settings.update(load_config_file(args.config))
    for name in _SETTINGS:
        text = getattr(args, name)
        if text is not None:
            settings[name] = _parse_setting(f"--{name}", name, text)
    return settings


def _prepare_out_dir(out) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {str(out)!r}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory {str(out)!r} is not writable")
    return path


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors.
        return int(exc.code or 0)

    try:
        settings = resolve_settings(args)
        config = ExperimentConfig(
            **{s.field: settings[name] for name, s in _SETTINGS.items() if s.field}
        )
        _prepare_out_dir(settings["out"])
    except (ValueError, OSError) as exc:
        # Bad flags, bad config-file entries, and unusable output directories
        # are all usage errors.
        print(f"l1cube: error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(config)
        bundle = write_bundle(
            report,
            settings["out"],
            fmt=settings["format"],
            figures=settings["histograms"],
        )
    except Exception as exc:
        print(f"l1cube: error: {exc}", file=sys.stderr)
        return 1

    print_table(report, sys.stdout)
    written = [
        str(p)
        for p in (bundle.report_json, bundle.table_csv)
        if p is not None
    ]
    if bundle.figure_files:
        written.append(f"{len(bundle.figure_files)} figure files")
    print(
        f"ran {len(report.rows)} dimensions x {config.num_pairs} pairs "
        f"(seed {config.seed}); wrote {', '.join(written)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
