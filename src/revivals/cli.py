"""Command-line front end.

Verbs: run, sweep, preset, validate. Exit codes: 0 success, 1 internal error
(an exception that is not a RevivalsError; its traceback goes to stderr),
2 configuration error, 3 truncation error, 4 stability error, 5 output error
(the output directory or a file in it cannot be created or written). The
output directory defaults to ./out and can be overridden with REVIVALS_OUT_DIR.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from .config import ConfigError, expand_preset, load_config, load_preset
from .errors import RevivalsError, StabilityError, TruncationError
from .runner import run_experiment, run_sweep

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_STABILITY = 4
EXIT_OUTPUT = 5


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _exit_code_for(exc: Exception) -> int:
    """Exit code for an exception raised by a run; an internal error's
    traceback is printed to stderr."""
    if isinstance(exc, TruncationError):
        return EXIT_TRUNCATION
    if isinstance(exc, StabilityError):
        return EXIT_STABILITY
    if isinstance(exc, RevivalsError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_OUTPUT
    traceback.print_exception(exc, file=sys.stderr)
    return EXIT_INTERNAL


def _parse_values(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --values {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revivals",
        description="Dissipative collapse/revival simulator for a nonlinear bosonic mode")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--name", default=None, help="output base name")
    run_p.add_argument("--out-dir", default=None, help="output directory")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter axis")
    sweep_p.add_argument("config", help="path to the base JSON config")
    sweep_p.add_argument("--axis", required=True, choices=("gamma", "b", "state_n"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated list of axis values")
    sweep_p.add_argument("--parallel", type=int, default=1)
    sweep_p.add_argument("--name", default=None)
    sweep_p.add_argument("--out-dir", default=None)

    preset_p = sub.add_parser("preset", help="run a shipped preset (fig1..fig8)")
    preset_p.add_argument("name", help="fig1..fig8 or a panel such as fig2b")
    preset_p.add_argument("--parallel", type=int, default=1)
    preset_p.add_argument("--out-dir", default=None)

    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")
    return parser


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        config.require_valid()
    except (ConfigError, OSError) as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    name = args.name or Path(args.config).stem
    try:
        result = run_experiment(config, name=name, out_dir=args.out_dir)
    except Exception as exc:
        return _fail(type(exc).__name__, str(exc), _exit_code_for(exc))
    print(f"{name}: {result.summary.report.classification.value} -> {result.csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        config = load_config(args.config)
        config.require_valid()
        values = _parse_values(args.values)
    except (ConfigError, OSError) as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    name = args.name or f"{Path(args.config).stem}_{args.axis}_sweep"
    try:
        result = run_sweep(config, args.axis, values, parallel=args.parallel,
                           name=name, out_dir=args.out_dir)
    except Exception as exc:
        return _fail(type(exc).__name__, str(exc), _exit_code_for(exc))
    print(f"{name}: {len(result.rows)} points -> {result.csv_path}")
    return EXIT_OK


def cmd_preset(args) -> int:
    try:
        panels = expand_preset(args.name)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    for panel in panels:
        try:
            spec = load_preset(panel)
        except ConfigError as exc:
            return _fail("config", str(exc), EXIT_CONFIG)
        try:
            if spec.is_sweep:
                result = run_sweep(spec.config, spec.sweep_axis, spec.sweep_values,
                                   parallel=args.parallel, name=panel,
                                   out_dir=args.out_dir)
                print(f"{panel}: {len(result.rows)} points -> {result.csv_path}")
            else:
                result = run_experiment(spec.config, name=panel, out_dir=args.out_dir)
                print(f"{panel}: {result.summary.report.classification.value} "
                      f"-> {result.csv_path}")
        except Exception as exc:
            return _fail(type(exc).__name__, str(exc), _exit_code_for(exc))
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    problems = config.validate()
    if problems:
        for p in problems:
            print(f"error: config: {p}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: valid")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep,
                "preset": cmd_preset, "validate": cmd_validate}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
