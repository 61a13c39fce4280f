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
from .estimation import _KS_BATCH_BYTES, _KS_PAIR_BYTES
from .experiment import ExperimentConfig, run_experiment
from .output import FORMATS, print_table, write_bundle
from .sampling import _WORKER_BYTES, _usable_cpus

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
# config file and the ExperimentConfig all come from here; a field's default
# is ExperimentConfig's own, and range rules live only in ExperimentConfig.
_DEFAULTS = ExperimentConfig()
_SETTINGS = {
    "dims": _Setting(_parse_dims, _DEFAULTS.dims, "dims", "comma-separated dimensions "
                     f"(default {','.join(map(str, _DEFAULTS.dims))})"),
    "pairs": _Setting(int, _DEFAULTS.num_pairs, "num_pairs",
                      f"point pairs sampled per dimension (default {_DEFAULTS.num_pairs})"),
    "seed": _Setting(int, _DEFAULTS.seed, "seed", f"root seed (default {_DEFAULTS.seed})"),
    "bins": _Setting(int, _DEFAULTS.bins, "bins", f"histogram bin count (default {_DEFAULTS.bins})"),
    "out": _Setting(str, ".", None, "output directory (default current directory)"),
    "format": _Setting(_parse_format, "both", None, "report formats to write (default both)"),
    "gof": _Setting(_parse_bool, _DEFAULTS.emit_gof, "emit_gof",
                    "run goodness-of-fit tests per dimension"),
    "histograms": _Setting(_parse_bool, _DEFAULTS.emit_histograms, "emit_histograms",
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

    The file is UTF-8, with or without a byte-order mark. Every malformed,
    out-of-range or repeated line, and a byte that is not UTF-8, raises
    ValueError prefixed with `path:lineno`.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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


# Bytes each histogram bin of each row holds by the time the files are
# written: its edge and count, then their JSON lists and text. tracemalloc
# reads 258-270 bytes over a whole run, the JSON report being the peak; the
# rest is headroom for the allocator.
_BIN_BYTES = 320


def _check_memory(config: ExperimentConfig) -> None:
    """Refuse a run whose pairs or histogram bins cannot fit in physical memory.

    A row holds its sample, 8 bytes a pair, for the summary, the sort, the
    histogram and KS. The stages run one after another, each with working
    memory of a fixed size beside the sample: the buffers of a sampling
    worker on each usable CPU, then blocks of at most about 1 MiB, such as a
    KS batch. KS also holds arrays over its block starts, one start per 256
    pairs, `_KS_PAIR_BYTES` a pair. With histograms, every row's bins are
    kept to the end of the run and then written out, `_BIN_BYTES` a bin.
    The bound adds all of it.
    Where the OS does not report its memory, nothing is checked.
    """
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return
    need = (8 * config.num_pairs + _usable_cpus() * _WORKER_BYTES + _KS_BATCH_BYTES
            + config.num_pairs * _KS_PAIR_BYTES)
    what = f"--pairs {config.num_pairs}: a row needs"
    if config.emit_histograms:
        need += len(config.dims) * (config.bins + 1) * _BIN_BYTES
        what = f"--pairs {config.num_pairs} --bins {config.bins}: the sweep needs"
    if 0 < physical < need:
        raise ValueError(
            f"{what} {need / 2**30:.1f} GiB, more than "
            f"the {physical / 2**30:.1f} GiB of physical memory"
        )


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
        _check_memory(config)
        _prepare_out_dir(settings["out"])
    except (ValueError, OSError) as exc:
        # Bad flags, bad config-file entries, pair or bin counts too large
        # for the machine and unusable output directories are all usage errors.
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
