"""Command-line entry point.

The flags, their config-file keys and their parsers come from the option
fields of :class:`~splatcloud.config.PipelineConfig`, one flat set that
holds every stage's options. Every flag also works as a ``key=value`` line
in a config file passed via ``--config``; explicit command-line values
override the file. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import signal
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .config import PipelineConfig, option_flag, option_key, parse_bool
from .errors import SplatCloudError, UsageError
from .pipeline import run

log = logging.getLogger(__name__)


# Options that are not config fields: config-file key -> parser.
_COMMAND_OPTIONS = {"stats_json": parse_bool, "verbose": parse_bool}


def _option_fields():
    return [f for f in fields(PipelineConfig) if f.metadata]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splatcloud",
        description="Convert a 3D Gaussian splatting scene into a dense coloured "
                    "point cloud (and optionally a meshing-ready surface cloud).",
        argument_default=argparse.SUPPRESS,
    )
    for f in _option_fields():
        meta = f.metadata
        help_text = meta["help"].format(default=f.default)
        if f.default is MISSING:
            parser.add_argument(f.name, nargs="?", default=None, type=meta["parse"],
                                metavar=option_key(f), help=help_text)
        elif isinstance(f.default, bool):
            parser.add_argument(option_flag(option_key(f)), dest=f.name, action="store_true",
                                help=help_text)
        else:
            parser.add_argument(option_flag(option_key(f)), dest=f.name, type=meta["parse"],
                                metavar=meta["metavar"], help=help_text)
    parser.add_argument("--config", metavar="PATH",
                        help="key=value file providing defaults for any flag")
    parser.add_argument("--stats-json", action="store_true",
                        help="print a machine-readable statistics block to stdout")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    return parser


def load_config_file(path: Path) -> dict:
    """Parse a key=value config file into option values keyed by field name."""
    parsers = {option_key(f): (f.name, f.metadata["parse"]) for f in _option_fields()}
    parsers.update((key, (key, parse)) for key, parse in _COMMAND_OPTIONS.items())
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got '{raw}'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: config files cannot nest")
        if key not in parsers:
            raise UsageError(f"{path}:{lineno}: unknown option '{key}'")
        name, parse = parsers[key]
        try:
            values[name] = parse(value.strip())
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise UsageError(
                f"{path}:{lineno}: bad value for {option_flag(key)}: {err}") from err
    return values


def _merged_options(argv) -> dict:
    namespace = build_parser().parse_args(argv)
    # Only the flags given are set; an absent positional is None.
    cli_values = {k: v for k, v in vars(namespace).items() if v is not None}
    file_values = {}
    if "config" in cli_values:
        file_values = load_config_file(Path(cli_values.pop("config")))
    return {**file_values, **cli_values}


def config_from_options(options: dict) -> PipelineConfig:
    """Build and validate the config from option values keyed by field name."""
    for f in _option_fields():
        if f.default is MISSING and f.name not in options:
            raise UsageError(f"missing {option_key(f)}: {f.metadata['help']}")
    config = PipelineConfig(**options)
    config.validate()
    return config


def main(argv=None) -> int:
    try:
        options = _merged_options(argv)
        stats_json = options.pop("stats_json", False)
        verbose = options.pop("verbose", False)
        config = config_from_options(options)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    try:
        stats = run(config)
    except SplatCloudError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, UsageError) else 1

    if stats_json:
        print(json.dumps(stats.as_dict(), indent=2))
    return 0


def entry() -> int:
    """Console-script entry point: :func:`main`, then freeze the heap for exit.

    SIGTERM exits with status 143 (128 + 15) after unwinding as Ctrl-C does,
    so the colour pass reaps its workers and no temporary file is left.
    ``gc.freeze`` moves every live object into the permanent generation, so
    the collections that interpreter shutdown runs skip the objects numpy and
    scipy hold instead of walking them all. Atexit handlers, logging and
    stream flushes and module teardown still run. ``main`` itself neither
    handles SIGTERM nor freezes: tests and tracers call it in a process
    that goes on.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
